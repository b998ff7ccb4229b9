package p2p

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/p2p/memnet"
)

// ownerOf returns the live node responsible for the key.
func ownerOf(t *testing.T, nodes []*Node, key string) *Node {
	t.Helper()
	var live []*Node
	for _, nd := range nodes {
		if !nd.isStopped() {
			live = append(live, nd)
		}
	}
	want := bruteOwner(live[0].space, live, live[0].keyPoint(key))
	for _, nd := range live {
		if nd.ID() == want {
			return nd
		}
	}
	t.Fatalf("no live node with ID %v", want)
	return nil
}

// liveOf filters out stopped nodes.
func liveOf(nodes []*Node) []*Node {
	var out []*Node
	for _, nd := range nodes {
		if !nd.isStopped() {
			out = append(out, nd)
		}
	}
	return out
}

// holdersOf counts live nodes holding a copy of the key.
func holdersOf(nodes []*Node, key string) int {
	count := 0
	for _, nd := range liveOf(nodes) {
		if _, ok := nd.localFetch(key, nil); ok {
			count++
		}
	}
	return count
}

// TestOwnerCrashGetFallback crashes a key's owner and requires every
// live node to still read the key before any stabilization runs — the
// replica-set fallback. It also requires the suspicion list to kick in:
// repeated reads from the same node stop paying timeouts for the dead
// owner after at most suspectDrop encounters.
func TestOwnerCrashGetFallback(t *testing.T) {
	nw := memnet.New(21)
	nodes := memCluster(t, nw, 6, 10, 21, func(_ int, c *Config) { c.Replicas = 3 })

	const key = "crash-me"
	if err := nodes[0].Put(key, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, nodes, key)
	if got := holdersOf(nodes, key); got < 2 {
		t.Fatalf("after Put, %d holders; want >= 2 (owner plus replicas)", got)
	}
	owner.Close() // ungraceful: no handoff, no notifications

	for _, nd := range liveOf(nodes) {
		v, _, err := nd.Get(key)
		if err != nil {
			t.Fatalf("Get from %v after owner crash: %v", nd.ID(), err)
		}
		if string(v) != "survives" {
			t.Fatalf("Get from %v = %q", nd.ID(), v)
		}
	}

	// Suspicion: the same reader stops paying timeouts for the corpse.
	reader := liveOf(nodes)[0]
	_, first, err := reader.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	var last Route
	for i := 0; i <= suspectDrop; i++ {
		if _, last, err = reader.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if last.Timeouts != 0 {
		t.Fatalf("after %d reads the dead owner still costs %d timeouts (first read: %d)",
			suspectDrop+2, last.Timeouts, first.Timeouts)
	}
}

// TestCrashRetentionFMinusOne crashes f = R-1 nodes simultaneously and
// requires zero key loss, both immediately (reads fall back through
// surviving replicas) and after stabilization restores the replication
// factor.
func TestCrashRetentionFMinusOne(t *testing.T) {
	nw := memnet.New(33)
	nodes := memCluster(t, nw, 6, 12, 33, func(_ int, c *Config) { c.Replicas = 3 })

	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("retain-%d", i)
		if err := nodes[i%len(nodes)].Put(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	fleet.Stabilize(nodes, 2) // let anti-entropy settle replica placement

	// Crash two distinct nodes at once: the owner of keys[0] and one more.
	victim1 := ownerOf(t, nodes, keys[0])
	var victim2 *Node
	for _, nd := range liveOf(nodes) {
		if nd != victim1 {
			victim2 = nd
			break
		}
	}
	victim1.Close()
	victim2.Close()

	// Zero loss, immediately: every key keeps at least one live copy
	// even before any repair runs. (A mid-path corpse can still make a
	// key temporarily unreachable from some readers until stabilization
	// reconnects the overlay — durability, not availability, is the
	// pre-stabilization guarantee.)
	for _, k := range keys {
		if h := holdersOf(nodes, k); h < 1 {
			t.Fatalf("key %q lost to f=2 simultaneous crashes: no live holder", k)
		}
	}

	fleet.Stabilize(liveOf(nodes), 3)
	for _, k := range keys {
		for _, nd := range liveOf(nodes) {
			v, route, err := nd.Get(k)
			if err != nil {
				t.Fatalf("key %q unreachable from %v after stabilization: %v", k, nd.ID(), err)
			}
			if string(v) != k {
				t.Fatalf("key %q corrupted: %q", k, v)
			}
			if route.Timeouts != 0 {
				t.Fatalf("Get %q from %v paid %d timeouts in a stabilized overlay", k, nd.ID(), route.Timeouts)
			}
		}
		if h := holdersOf(nodes, k); h < 2 {
			t.Fatalf("key %q under-replicated after stabilization: %d holders", k, h)
		}
	}
}

// TestReReplicationAfterJoin joins a fresh node that reclaims ownership
// of existing keys, lets anti-entropy re-fan them from the new owner,
// then crashes the joiner: the keys it owned must survive on the
// replicas the anti-entropy pass created.
func TestReReplicationAfterJoin(t *testing.T) {
	nw := memnet.New(7)
	nodes := memCluster(t, nw, 6, 8, 7, func(_ int, c *Config) { c.Replicas = 3 })

	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("rejoin-%d", i)
		if err := nodes[i%len(nodes)].Put(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}

	// The joiner's ID comes from a stream of its own.
	nid := fleet.NewDealer(rand.New(rand.NewSource(99)), nodes[0].space).Next()
	for _, nd := range nodes {
		if nd.ID() == nid {
			t.Fatalf("joiner ID %v is already in the overlay", nid)
		}
	}
	cfg := memConfig(nw, "joiner", 6, nid)
	cfg.Replicas = 3
	joiner, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*Node(nil), nodes...), joiner)
	fleet.Stabilize(all, 3)

	owned := 0
	for _, k := range keys {
		if ownerOf(t, all, k) == joiner {
			owned++
			if h := holdersOf(all, k); h < 2 {
				t.Fatalf("key %q owned by joiner has %d holders after stabilization; re-replication did not converge", k, h)
			}
		}
	}
	joiner.Close()

	// Zero loss immediately, full retrievability after stabilization.
	for _, k := range keys {
		if h := holdersOf(all, k); h < 1 {
			t.Fatalf("key %q lost after joiner crash (joiner owned %d keys)", k, owned)
		}
	}
	fleet.Stabilize(liveOf(all), 3)
	for _, k := range keys {
		v, _, err := liveOf(all)[0].Get(k)
		if err != nil {
			t.Fatalf("key %q unreachable after joiner crash + stabilization: %v", k, err)
		}
		if string(v) != k {
			t.Fatalf("key %q corrupted: %q", k, v)
		}
	}
}

// TestVersionConflictLWW pins the conflict-resolution rule: higher
// logical version wins; equal versions tie-break toward the larger
// writer ID; stale copies never clobber newer ones.
func TestVersionConflictLWW(t *testing.T) {
	// Unit-level merge.
	a := item{Val: []byte("a"), Ver: 2, Src: 1}
	b := item{Val: []byte("b"), Ver: 1, Src: 9}
	if !newer(a, b) || newer(b, a) {
		t.Fatal("higher version must win regardless of source")
	}
	c := item{Val: []byte("c"), Ver: 2, Src: 5}
	if !newer(c, a) || newer(a, c) {
		t.Fatal("equal versions must tie-break toward the larger source ID")
	}

	nw := memnet.New(55)
	nodes := memCluster(t, nw, 6, 8, 55, func(_ int, c *Config) { c.Replicas = 3 })
	nd := nodes[0]

	if !nd.putLocal("k", item{Val: []byte("v1"), Ver: 1, Src: 3}) {
		t.Fatal("first copy must be accepted")
	}
	if nd.putLocal("k", item{Val: []byte("v0"), Ver: 1, Src: 2}) {
		t.Fatal("stale copy (same version, smaller source) must be rejected")
	}
	if !nd.putLocal("k", item{Val: []byte("v2"), Ver: 2, Src: 1}) {
		t.Fatal("newer version must be accepted")
	}
	if it, _ := nd.localFetch("k", nil); string(it.Val) != "v2" {
		t.Fatalf("store holds %q after merge, want v2", it.Val)
	}

	// End-to-end: the second Put supersedes the first on all replicas.
	const key = "lww"
	if err := nodes[1].Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := nodes[2].Put(key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	fleet.Stabilize(nodes, 2)
	for _, rd := range nodes {
		if v, _, err := rd.Get(key); err != nil || string(v) != "new" {
			t.Fatalf("Get from %v = %q, %v; want new", rd.ID(), v, err)
		}
	}

	// A stale replicate push (version 0) must not clobber the stored copy.
	owner := ownerOf(t, nodes, key)
	other := nodes[0]
	if other == owner {
		other = nodes[1]
	}
	_, _ = other.call(owner.Addr(), request{Op: "replicate", Key: key, Value: []byte("stale"), Ver: 0, Src: 1})
	if v, _, err := owner.Get(key); err != nil || string(v) != "new" {
		t.Fatalf("stale replicate clobbered the key: %q, %v", v, err)
	}
}

// TestStoreRejectsOutOfScope pins the stale-route fix: a node that is
// neither owner nor replica for a key rejects a direct store with a
// redirect entry instead of silently stranding the value.
func TestStoreRejectsOutOfScope(t *testing.T) {
	nw := memnet.New(11)
	nodes := memCluster(t, nw, 6, 10, 11, func(_ int, c *Config) { c.Replicas = 1 })

	const key = "misrouted"
	owner := ownerOf(t, nodes, key)
	var wrong *Node
	for _, nd := range nodes {
		if nd != owner && !nd.mayHold(nd.keyPoint(key)) {
			wrong = nd
			break
		}
	}
	if wrong == nil {
		t.Skip("every node is in the key's replica scope; cannot exercise rejection")
	}
	resp, err := nodes[0].call(wrong.Addr(), request{Op: "store", Key: key, Value: []byte("x")})
	if err == nil {
		t.Fatal("out-of-scope store was accepted")
	}
	if resp.Redirect == nil {
		t.Fatal("rejection carried no redirect entry")
	}
	if _, ok := wrong.localFetch(key, nil); ok {
		t.Fatal("rejected store still landed in the receiver's store")
	}
	// The public path is unaffected: a routed Put lands on the owner.
	if err := nodes[0].Put(key, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := nodes[0].Get(key); err != nil || string(v) != "ok" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

// stallTransport wraps a Transport so every dial burns its full timeout
// before failing — the worst-case blackholed neighbor.
type stallTransport struct {
	inner Transport
	dials chan time.Duration
}

func (s *stallTransport) Listen(addr string) (net.Listener, error) { return s.inner.Listen(addr) }

func (s *stallTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	select {
	case s.dials <- timeout:
	default:
	}
	time.Sleep(timeout)
	return nil, fmt.Errorf("stall: %s unreachable", addr)
}

// TestRouteContextDeadline pins the dial-budget fix: the per-candidate
// dial cost is capped by the caller's context deadline, so a blackholed
// neighbor costs min(DialTimeout, ctx remaining) instead of the full
// dial-timeout ladder — and an already-expired context fails fast
// without dialing at all.
func TestRouteContextDeadline(t *testing.T) {
	nw := memnet.New(3)
	inner := nw.Host("stall")
	st := &stallTransport{inner: inner, dials: make(chan time.Duration, 16)}
	cfg := Config{
		Dim:         5,
		ID:          &ids.CycloidID{K: 2, A: 9},
		DialTimeout: 2 * time.Second,
		Transport:   st,
	}
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	// Point a leaf entry at an unreachable peer so routes have a
	// candidate to chase.
	ghost := &entry{ID: ids.CycloidID{K: 3, A: 9}, Addr: "ghost"}
	nd.editRS(func(rs *routingState) { rs[insideL], rs[insideR] = ghost, ghost })

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _ = nd.LookupContext(ctx, "anything")
	if d := time.Since(start); d > time.Second {
		t.Fatalf("lookup with a 150ms context budget took %v; dials are not capped by the deadline", d)
	}
	select {
	case got := <-st.dials:
		if got > 200*time.Millisecond {
			t.Fatalf("dial used timeout %v; want <= the context's ~150ms remaining", got)
		}
	default:
		t.Fatal("no dial was attempted")
	}

	// An expired context fails fast without touching the transport.
	for len(st.dials) > 0 {
		<-st.dials
	}
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	start = time.Now()
	if _, err := nd.LookupContext(expired, "anything"); err == nil {
		t.Fatal("lookup with an expired context succeeded")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("expired-context lookup took %v; want immediate failure", d)
	}
	if len(st.dials) != 0 {
		t.Fatal("expired context still dialed the transport")
	}
}
