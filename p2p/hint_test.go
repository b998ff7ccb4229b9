package p2p

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"cycloid/internal/fleet"
	"cycloid/p2p/memnet"
)

// fleetSum adds one counter over the live nodes.
func fleetSum(nodes []*Node, get func(*Node) uint64) uint64 {
	var sum uint64
	for _, nd := range liveOf(nodes) {
		sum += get(nd)
	}
	return sum
}

func steps(nd *Node) uint64    { return nd.tel.requests["step"].Value() }
func timeouts(nd *Node) uint64 { return nd.tel.timeouts.Value() }

// TestHintedPutGet pins the start-address contract of PutAt and GetAt:
// a correct hint serves the operation with no routing step at all, and
// a stale one — a node without the key, a crashed owner — falls back to
// the routed path with the right answer, no timeout charged anywhere,
// and a suspicion strike only for the unreachable peer, which no later
// hint dials again.
func TestHintedPutGet(t *testing.T) {
	nw := memnet.New(31)
	nodes := memCluster(t, nw, 6, 10, 31, func(_ int, c *Config) { c.Replicas = 3 })
	ctx := context.Background()
	client := nodes[0]

	// A key owned by some other node, so hints cross the wire.
	var key string
	var owner *Node
	for i := 0; owner == nil || owner == client; i++ {
		key = fmt.Sprintf("hinted-%d", i)
		owner = ownerOf(t, nodes, key)
	}
	r, err := client.PutAt(ctx, "", key, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Hinted || r.Addr != owner.Addr() {
		t.Fatalf("routed PutAt: Hinted=%v Addr=%q, want the owner %q", r.Hinted, r.Addr, owner.Addr())
	}

	// Hits: no step exchange anywhere in the fleet.
	before := fleetSum(nodes, steps)
	v, r, err := client.GetAt(ctx, owner.Addr(), key, nil)
	if err != nil || string(v) != "v1" || !r.Hinted || r.Hops != 0 {
		t.Fatalf("hinted GetAt = %q, %+v, %v", v, r, err)
	}
	if r, err = client.PutAt(ctx, owner.Addr(), key, []byte("v2")); err != nil || !r.Hinted || r.Addr != owner.Addr() {
		t.Fatalf("hinted PutAt = %+v, %v", r, err)
	}
	if d := fleetSum(nodes, steps) - before; d != 0 {
		t.Fatalf("hinted exchanges cost %d routing steps, want 0", d)
	}
	if got := holdersOf(nodes, key); got < 2 {
		t.Fatalf("hinted PutAt left %d holders; the owner must still fan out", got)
	}

	// A hint at a live node without the key: routed fallback, and the
	// node answered, so it is not suspected.
	var empty *Node
	for _, nd := range nodes {
		if _, ok := nd.localFetch(key, nil); !ok && nd != client {
			empty = nd
			break
		}
	}
	if empty == nil {
		t.Fatal("every node holds the key")
	}
	v, r, err = client.GetAt(ctx, empty.Addr(), key, nil)
	if err != nil || string(v) != "v2" || r.Hinted || r.Timeouts != 0 {
		t.Fatalf("GetAt via a node without the key = %q, %+v, %v", v, r, err)
	}
	if s := client.peer(empty.Addr()).strikes; s != 0 {
		t.Fatalf("a live hint that answered got %d suspicion strikes", s)
	}

	// A crashed owner, after stabilization has repaired the routing
	// tables: the hint misses, the routed read finds a promoted replica,
	// and the miss is charged to no timeout counter.
	dead := owner.Addr()
	owner.Close()
	live := liveOf(nodes)
	fleet.Stabilize(live, 3)
	reader := client
	for _, nd := range live {
		if nd.peer(dead).strikes == 0 {
			reader = nd // one that never probed the corpse itself
			break
		}
	}
	tBefore := fleetSum(live, timeouts)
	v, r, err = reader.GetAt(ctx, dead, key, nil)
	if err != nil || string(v) != "v2" || r.Hinted || r.Timeouts != 0 {
		t.Fatalf("GetAt via a crashed owner = %q, %+v, %v", v, r, err)
	}
	if reader.peer(dead).strikes == 0 {
		t.Fatal("an unreachable hint was not suspected")
	}
	dials := reader.tel.dialFailures.Value()
	if v, r, err = reader.GetAt(ctx, dead, key, nil); err != nil || string(v) != "v2" || r.Timeouts != 0 {
		t.Fatalf("second GetAt via a crashed owner = %q, %+v, %v", v, r, err)
	}
	if r, err = reader.PutAt(ctx, dead, key, []byte("v3")); err != nil || r.Hinted || r.Timeouts != 0 {
		t.Fatalf("PutAt via a crashed owner = %+v, %v", r, err)
	}
	if d := reader.tel.dialFailures.Value() - dials; d != 0 {
		t.Fatalf("a suspected hint was dialed again (%d dial failures)", d)
	}
	if v, _, err := reader.Get(key); err != nil || string(v) != "v3" {
		t.Fatalf("Get after the fallback Put = %q, %v", v, err)
	}
	if d := fleetSum(live, timeouts) - tBefore; d != 0 {
		t.Fatalf("stale hints advanced lookup_timeouts_total by %d", d)
	}
}

// TestStaleHintStore pins what a Put hinted at a node that rejects the
// key costs: the rejected store, one route forwarded from the rejecting
// node, and a single store at that route's terminal, the key's owner —
// at most two store requests fleet-wide (one when the owner is the
// origin itself, which stores locally). The value then reads back from
// every node.
func TestStaleHintStore(t *testing.T) {
	nw := memnet.New(47)
	nodes := memCluster(t, nw, 6, 10, 47, func(_ int, c *Config) { c.Replicas = 3 })
	ctx := context.Background()
	origin := nodes[0]
	stores := func(nd *Node) uint64 { return nd.tel.requests["store"].Value() }
	checked := 0
	for i := 0; i < 400 && checked < 8; i++ {
		key := fmt.Sprintf("stale-%d", i)
		at := slices.IndexFunc(nodes, func(nd *Node) bool { return nd != origin && !nd.mayHold(nd.keyPoint(key)) })
		if at < 0 {
			continue
		}
		stale, owner := nodes[at], ownerOf(t, nodes, key)
		checked++
		val := []byte(fmt.Sprintf("fresh-%d", i))
		storesBefore, redirectsBefore := fleetSum(nodes, stores), origin.tel.putRedirects.Value()
		r, err := origin.PutAt(ctx, stale.Addr(), key, val)
		if err != nil {
			t.Fatalf("%s hinted at %s: %v", key, stale.Addr(), err)
		}
		if r.Addr != owner.Addr() {
			t.Errorf("%s hinted at %s: acknowledged by %s, want the owner %s", key, stale.Addr(), r.Addr, owner.Addr())
		}
		if got := origin.tel.putRedirects.Value() - redirectsBefore; got != 1 {
			t.Errorf("%s: %d rejections followed, want 1", key, got)
		}
		want := uint64(2)
		if owner == origin {
			want = 1
		}
		if got := fleetSum(nodes, stores) - storesBefore; got != want {
			t.Errorf("%s hinted at %s: %d store requests fleet-wide, want %d", key, stale.Addr(), got, want)
		}
		for _, nd := range nodes {
			if v, _, err := nd.Get(key); err != nil || !bytes.Equal(v, val) {
				t.Errorf("%s from %s after the stale-hinted Put: %q, %v", key, nd.Addr(), v, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no key has a node outside its replica scope")
	}
}
