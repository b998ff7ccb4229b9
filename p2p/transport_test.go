package p2p

import (
	"fmt"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/p2p/memnet"
)

var _ Transport = (*memnet.Host)(nil) // memnet satisfies the Transport contract

// memConfig returns a node config bound to a memnet host.
func memConfig(nw *memnet.Network, name string, dim int, id ids.CycloidID) Config {
	return Config{
		Dim:         dim,
		ID:          &id,
		DialTimeout: 200 * time.Millisecond,
		Transport:   nw.Host(name),
	}
}

// memCluster boots n nodes with boot on nw, hosts m0, m1, ... in start
// order, each from memConfig adjusted by mut when it is non-nil.
func memCluster(t *testing.T, nw *memnet.Network, dim, n int, seed int64, mut func(ord int, cfg *Config)) []*Node {
	t.Helper()
	return boot(t, dim, n, seed, func(ord int, id ids.CycloidID) Config {
		cfg := memConfig(nw, fmt.Sprintf("m%d", ord), dim, id)
		if mut != nil {
			mut(ord, &cfg)
		}
		return cfg
	})
}

// TestServeBacksOffOnAcceptErrors feeds the accept loop a stream of
// transient listener errors and requires it to back off instead of
// hot-looping: without the backoff the loop would spin through millions
// of Accept calls in the observation window.
func TestServeBacksOffOnAcceptErrors(t *testing.T) {
	nw := memnet.New(1)
	const faults = 1 << 30
	nw.FailAccepts("flaky", faults)
	nd, err := Start(memConfig(nw, "flaky", 5, ids.CycloidID{K: 1, A: 3}))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	calls := nw.AcceptCalls("flaky")
	if calls > 30 {
		t.Fatalf("accept loop spun %d times in 150ms; backoff is not working", calls)
	}
	if calls == 0 {
		t.Fatal("accept loop never ran")
	}
	// Shutdown must not wait out the current backoff sleep's full ladder.
	start := time.Now()
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v during accept backoff", d)
	}

	// Once the fault clears, the node must serve again.
	nw2 := memnet.New(2)
	nw2.FailAccepts("srv", 3)
	srv, err := Start(memConfig(nw2, "srv", 5, ids.CycloidID{K: 2, A: 7}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Start(memConfig(nw2, "cli", 5, ids.CycloidID{K: 3, A: 21}))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cli.call(srv.Addr(), request{Op: "ping"}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered after transient accept faults")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulLeaveHandoffUnderLossAndLatency runs the departure key
// hand-off on a fabric with injected loss and with latency pushed past
// the dial timeout on some links, and requires zero data loss: retries
// must deliver every batch somewhere live, and stabilization's key
// repair must pull parked keys back to their owners.
func TestGracefulLeaveHandoffUnderLossAndLatency(t *testing.T) {
	nw := memnet.New(9)
	nodes := memCluster(t, nw, 6, 12, 5, nil)

	const items = 30
	for i := 0; i < items; i++ {
		if err := nodes[i%len(nodes)].Put(fmt.Sprintf("doc-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Loss on every link, plus latency beyond the timeout on the
	// leavers' links to two specific peers.
	nw.SetDefaultDrop(0.25)
	nw.SetLatency("m3", "m0", time.Second)
	nw.SetLatency("m7", "m1", time.Second)
	for _, idx := range []int{3, 7, 9} {
		if err := nodes[idx].Leave(); err != nil {
			t.Fatalf("leave %d under loss: %v", idx, err)
		}
	}
	nw.HealAll()

	var live []*Node
	for _, nd := range nodes {
		if !nd.isStopped() {
			live = append(live, nd)
		}
	}
	fleet.Stabilize(live, 3)
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("doc-%d", i)
		val, route, err := live[i%len(live)].Get(key)
		if err != nil {
			t.Fatalf("%q lost after lossy departures: %v", key, err)
		}
		if val[0] != byte(i) {
			t.Fatalf("%q corrupted", key)
		}
		if route.Timeouts != 0 {
			t.Fatalf("%q: %d timeouts on a healed fabric", key, route.Timeouts)
		}
	}
}

// TestOverlappingJoinsConvergeUnderLoss joins several nodes through the
// same bootstrap concurrently — the overlap the paper explicitly
// assumes away — on a lossy, slow fabric, and requires stabilization to
// converge the overlay to exact lookups anyway.
func TestOverlappingJoinsConvergeUnderLoss(t *testing.T) {
	const dim = 6
	space := ids.NewSpace(dim)
	nw := memnet.New(17)
	boot, err := Start(memConfig(nw, "boot", dim, space.FromLinear(11)))
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()

	nw.SetDefaultDrop(0.15)
	nw.SetDefaultLatency(50 * time.Millisecond) // below the timeout: links slow but usable
	ords := []uint64{40, 99, 170, 230, 301, 360}
	nodes := []*Node{boot}
	joined := make(chan *Node, len(ords))
	for i, v := range ords {
		nd, err := Start(memConfig(nw, fmt.Sprintf("j%d", i), dim, space.FromLinear(v)))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		go func(nd *Node) {
			// A join on a lossy fabric may fail outright; retry until it
			// lands. Overlap between the retries is the point.
			for nd.Join(boot.Addr()) != nil {
			}
			joined <- nd
		}(nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	for range ords {
		<-joined
	}
	nw.HealAll()
	fleet.Stabilize(nodes, 4)

	for trial := 0; trial < 40; trial++ {
		key := fmt.Sprintf("olap-%d", trial)
		want := bruteOwner(space, nodes, nodes[0].keyPoint(key))
		for _, from := range nodes {
			r, err := from.Lookup(key)
			if err != nil {
				t.Fatalf("lookup %q from %v: %v", key, from.ID(), err)
			}
			if r.Terminal != want {
				t.Fatalf("lookup %q from %v: terminal %v, want %v", key, from.ID(), r.Terminal, want)
			}
			if r.Timeouts != 0 {
				t.Fatalf("lookup %q from %v: %d timeouts on a healed fabric", key, from.ID(), r.Timeouts)
			}
		}
	}
}

// TestKeyMovesLargerThanAFrame moves more than one frame's worth of
// keys at R=1, where the moving copy is the only one: 40 values of 64
// KiB (2.5 MiB, against the 1 MiB frame cap) held by one node of a
// four-node overlay. The holder's Leave must split its handoff batches
// under the cap (unsplit, the batches over it were lost: 25 keys), and
// a newcomer that takes 35 of the keys must page its reclaim (unpaged,
// the holder dropped all 35 and its reply overran the cap).
func TestKeyMovesLargerThanAFrame(t *testing.T) {
	const (
		dim   = 6
		keys  = 40
		taken = 35 // keys the newcomer of the join case takes over
		size  = 64 << 10
	)
	value := func(k string) []byte {
		v := make([]byte, size)
		for i := range v {
			v[i] = k[i%len(k)] + byte(i)
		}
		return v
	}
	// overlay boots the four nodes and puts the keys on the holder:
	// keys it owns, taken of which a newcomer, when not nil, owns once
	// it joins.
	overlay := func(t *testing.T, nw *memnet.Network, newcomer *ids.CycloidID) (nodes []*Node, ks []string) {
		t.Helper()
		nodes = memCluster(t, nw, dim, 4, 5, nil)
		holder := nodes[3]
		moving := 0
		for i := 0; len(ks) < keys; i++ {
			if i > 1<<16 {
				t.Fatalf("found only %d keys on %v", len(ks), holder.ID())
			}
			k := fmt.Sprintf("bulk-%d", i)
			p := holder.keyPoint(k)
			if bruteOwner(holder.space, nodes, p) != holder.ID() {
				continue
			}
			if newcomer != nil {
				moves := holder.space.Closer(p, *newcomer, holder.ID())
				if moves != (moving < taken) {
					continue
				}
				if moves {
					moving++
				}
			}
			ks = append(ks, k)
			if err := nodes[0].Put(k, value(k)); err != nil {
				t.Fatal(err)
			}
		}
		return nodes, ks
	}
	// lost counts the keys no live node holds intact.
	lost := func(nodes []*Node, ks []string) (n int) {
		for _, k := range ks {
			held := false
			for _, nd := range liveOf(nodes) {
				if it, ok := nd.localFetch(k); ok && string(it.Val) == string(value(k)) {
					held = true
				}
			}
			if !held {
				n++
			}
		}
		return n
	}

	t.Run("leave", func(t *testing.T) {
		nodes, ks := overlay(t, memnet.New(5), nil)
		if err := nodes[3].Leave(); err != nil {
			t.Fatal(err)
		}
		if n := lost(nodes, ks); n != 0 {
			t.Fatalf("Leave lost %d of %d keys", n, keys)
		}
	})
	t.Run("join", func(t *testing.T) {
		nw := memnet.New(5)
		newcomer := ids.CycloidID{K: 5, A: 9}
		nodes, ks := overlay(t, nw, &newcomer)
		nd, err := Start(memConfig(nw, "newcomer", dim, newcomer))
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		if err := nd.Join(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
		if n := lost(append(nodes, nd), ks); n != 0 {
			t.Fatalf("Join lost %d of %d keys", n, keys)
		}
		if got := len(nd.Keys()); got != taken {
			t.Fatalf("newcomer holds %d keys, want %d", got, taken)
		}
	})
}
