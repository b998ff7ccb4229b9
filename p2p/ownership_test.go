package p2p

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"cycloid/p2p/memnet"
)

// Payload ownership: a value decoded from a frame is the receiver's, so
// the store keeps it without a second copy; a value an API caller hands
// to Put stays the caller's, so a node that stores it itself keeps a
// copy. TestOwnershipLocalPut fails if a local Put stores the caller's
// slice, TestOwnershipPooledFrames if a decoded value aliases the pooled
// frame buffer it arrived in, and TestOwnershipGetIntoCallerBuffer if a
// read hands out store memory or ignores its destination buffer.

// TestOwnershipLocalPut puts through every path that hands the
// caller's slice to the origin's own store — routed and hinted to
// itself as the owner, and a hinted store that another node redirects
// back to it — then overwrites the slice. The stored value must not
// move.
func TestOwnershipLocalPut(t *testing.T) {
	nw := memnet.New(41)
	nodes := memCluster(t, nw, 6, 10, 41, func(_ int, c *Config) { c.Replicas = 3 })
	ctx := context.Background()

	// A store hinted at a node outside a key's replica scope is
	// redirected to the node that one routes the key to, which then
	// stores it whether or not it owns the key. The origin of every case
	// is a node some redirect names that also owns two other keys.
	type via struct {
		key string
		nd  *Node
	}
	named := map[*Node]via{}
	owned := map[*Node][]string{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("own-%d", i)
		o := ownerOf(t, nodes, key)
		owned[o] = append(owned[o], key)
		for _, nd := range nodes {
			if red := nd.redirect(nd.keyPoint(key)); red != nil && red.Redirect != nil {
				if y := nodeByID(t, nodes, toEntry(*red.Redirect)); y != nd && named[y].nd == nil {
					named[y] = via{key, nd}
				}
			}
		}
	}
	var origin *Node
	for _, nd := range nodes {
		if named[nd].nd != nil && len(owned[nd]) >= 3 {
			origin = nd
			break
		}
	}
	if origin == nil {
		t.Fatal("no node is both named by a redirect and the owner of three keys")
	}
	redir := named[origin]
	keys := slices.DeleteFunc(owned[origin], func(k string) bool { return k == redir.key })

	cases := []struct {
		name, key, hint string
		redirects       uint64
	}{
		{"routed to itself", keys[0], "", 0},
		{"hinted at itself", keys[1], origin.Addr(), 0},
		{"redirected to itself", redir.key, redir.nd.Addr(), 1},
	}
	for i, c := range cases {
		want := bytes.Repeat([]byte{byte('a' + i)}, 300)
		buf := append([]byte(nil), want...)
		redirects := origin.tel.putRedirects.Value()
		r, err := origin.PutAt(ctx, c.hint, c.key, buf)
		if err != nil {
			t.Fatalf("%s: Put: %v", c.name, err)
		}
		if r.Addr != origin.Addr() {
			t.Fatalf("%s: acknowledged by %s, want the origin %s", c.name, r.Addr, origin.Addr())
		}
		if got := origin.tel.putRedirects.Value() - redirects; got != c.redirects {
			t.Fatalf("%s: %d redirects followed, want %d", c.name, got, c.redirects)
		}
		copy(buf, bytes.Repeat([]byte("X"), len(buf)))
		if it, ok := origin.localFetch(c.key, nil); !ok || !bytes.Equal(it.Val, want) {
			t.Errorf("%s: stored value changed with the caller's slice: %.8q…", c.name, it.Val)
		}
	}
}

// TestOwnershipPooledFrames writes a 64 KiB value through a remote
// owner with R=3, then pushes well over a hundred more 64 KiB stores —
// and the replicate frames they fan out — through the same pooled
// connections, whose frame buffers are recycled under them. The owner
// and every replica must still hold the original bytes.
func TestOwnershipPooledFrames(t *testing.T) {
	nw := memnet.New(43)
	nodes := memCluster(t, nw, 6, 10, 43, func(_ int, c *Config) { c.Replicas = 3 })
	ctx := context.Background()
	origin := nodes[0]

	var keys []string
	var owner *Node
	for i := 0; len(keys) < 121 && i < 20000; i++ {
		key := fmt.Sprintf("frame-%d", i)
		o := ownerOf(t, nodes, key)
		if o == origin || owner != nil && o != owner {
			continue
		}
		owner = o
		keys = append(keys, key)
	}
	if len(keys) < 121 {
		t.Fatalf("found %d keys owned by one remote node, want 121", len(keys))
	}
	want := chunkOf(0)
	if _, err := origin.PutAt(ctx, "", keys[0], want); err != nil {
		t.Fatal(err)
	}
	holders := append([]entry{*owner.selfEntry()}, owner.replicaTargets(owner.keyPoint(keys[0]))...)
	if len(holders) != 3 {
		t.Fatalf("%d holders, want owner plus 2 replicas", len(holders))
	}
	for i, key := range keys[1:] {
		if _, err := origin.PutAt(ctx, owner.Addr(), key, chunkOf(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range holders {
		nd := nodeByID(t, nodes, h)
		if it, ok := nd.localFetch(keys[0], nil); !ok || !bytes.Equal(it.Val, want) {
			t.Errorf("%v (%s) holds %d bytes that differ from the 64 KiB written", h.ID, h.Addr, len(it.Val))
		}
	}
}

// chunkOf is a 64 KiB value whose every byte depends on i.
func chunkOf(i int) []byte {
	v := make([]byte, 64<<10)
	for j := range v {
		v[j] = byte(i*131 + j*7 + j>>9)
	}
	return v
}

// nodeByID finds the node an entry names.
func nodeByID(t *testing.T, nodes []*Node, e entry) *Node {
	t.Helper()
	for _, nd := range nodes {
		if nd.id == e.ID {
			return nd
		}
	}
	t.Fatalf("no node %v", e.ID)
	return nil
}

// TestOwnershipGetIntoCallerBuffer reads through each GetAt path — a
// hint at a remote holder, a hint at the reader itself (answered
// in-process), a routed fetch — and localFetch: a destination with room
// receives the value in its own backing array, a short one is left
// untouched for a fresh slice, and neither result is store memory.
func TestOwnershipGetIntoCallerBuffer(t *testing.T) {
	nw := memnet.New(47)
	nodes := memCluster(t, nw, 6, 10, 47, func(_ int, c *Config) { c.Replicas = 3 })
	ctx := context.Background()
	const key = "into-dst"
	want := chunkOf(7)
	if err := nodes[0].Put(key, want); err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, nodes, key)
	var reader *Node
	for _, nd := range nodes {
		if _, ok := nd.localFetch(key, nil); !ok {
			reader = nd
			break
		}
	}
	if reader == nil {
		t.Fatal("every node holds the key")
	}
	paths := []struct {
		name string
		get  func(dst []byte) ([]byte, error)
	}{
		{"hinted remote", func(dst []byte) ([]byte, error) {
			v, _, err := reader.GetAt(ctx, owner.Addr(), key, dst)
			return v, err
		}},
		{"hinted self", func(dst []byte) ([]byte, error) {
			v, _, err := owner.GetAt(ctx, owner.Addr(), key, dst)
			return v, err
		}},
		{"routed", func(dst []byte) ([]byte, error) {
			v, _, err := reader.GetAt(ctx, "", key, dst)
			return v, err
		}},
		{"localFetch", func(dst []byte) ([]byte, error) {
			it, _ := owner.localFetch(key, dst)
			return it.Val, nil
		}},
	}
	for _, p := range paths {
		roomy := make([]byte, 1, len(want)+1)
		v, err := p.get(roomy)
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("%s: %d bytes, %v; want the 64 KiB written", p.name, len(v), err)
		}
		if &v[0] != &roomy[0] {
			t.Errorf("%s: the value fit the destination but landed elsewhere", p.name)
		}
		short := make([]byte, len(want)-1)
		if v, err = p.get(short); err != nil || !bytes.Equal(v, want) || &v[0] == &short[0] {
			t.Errorf("%s: a short destination gave %d bytes, %v, or was written", p.name, len(v), err)
		}
		if !bytes.Equal(short, make([]byte, len(short))) {
			t.Errorf("%s: a short destination was written into", p.name)
		}
		copy(v, bytes.Repeat([]byte("X"), len(v)))
	}
	if it, _ := owner.localFetch(key, nil); !bytes.Equal(it.Val, want) {
		t.Error("writing into a read value changed the stored one")
	}
}
