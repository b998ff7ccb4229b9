package p2p

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
)

// testConfig returns a fast-failing config for localhost tests.
func testConfig(dim int, id ids.CycloidID) Config {
	return Config{
		Dim:         dim,
		ListenAddr:  "127.0.0.1:0",
		ID:          &id,
		DialTimeout: 500 * time.Millisecond,
	}
}

// boot starts n nodes through fleet.Boot from seed, member ord with
// config(ord, id), closes them at cleanup and runs three stabilization
// sweeps.
func boot(t *testing.T, dim, n int, seed int64, config func(ord int, id ids.CycloidID) Config) []*Node {
	t.Helper()
	nodes, err := fleet.Boot(fleet.NewDealer(rand.New(rand.NewSource(seed)), ids.NewSpace(dim)), nil, n,
		func(ord int, id ids.CycloidID) (*Node, error) { return Start(config(ord, id)) })
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Stabilize(nodes, 3)
	return nodes
}

// cluster boots n localhost TCP nodes.
func cluster(t *testing.T, dim, n int, seed int64) []*Node {
	t.Helper()
	return boot(t, dim, n, seed, func(_ int, id ids.CycloidID) Config { return testConfig(dim, id) })
}

// bruteOwner computes the ground-truth responsible node among live nodes.
func bruteOwner(space ids.Space, live []*Node, t ids.CycloidID) ids.CycloidID {
	best := live[0].ID()
	for _, nd := range live[1:] {
		if space.Closer(t, nd.ID(), best) {
			best = nd.ID()
		}
	}
	return best
}

func TestSingleNodeOverlay(t *testing.T) {
	nd, err := Start(testConfig(5, ids.CycloidID{K: 2, A: 9}))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	val, route, err := nd.Get("k")
	if err != nil || string(val) != "v" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if route.Terminal != nd.ID() || route.Hops != 0 {
		t.Fatalf("route = %+v", route)
	}
}

func TestTwoNodesSameAndDifferentCycle(t *testing.T) {
	cases := []struct {
		name string
		a, b ids.CycloidID
	}{
		{"same cycle", ids.CycloidID{K: 1, A: 9}, ids.CycloidID{K: 4, A: 9}},
		{"different cycle", ids.CycloidID{K: 1, A: 9}, ids.CycloidID{K: 3, A: 20}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			na, err := Start(testConfig(5, c.a))
			if err != nil {
				t.Fatal(err)
			}
			defer na.Close()
			nb, err := Start(testConfig(5, c.b))
			if err != nil {
				t.Fatal(err)
			}
			defer nb.Close()
			if err := nb.Join(na.Addr()); err != nil {
				t.Fatal(err)
			}
			// Both directions must find each key's owner exactly.
			space := ids.NewSpace(5)
			live := []*Node{na, nb}
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("key-%d", i)
				want := bruteOwner(space, live, na.keyPoint(key))
				for _, from := range live {
					r, err := from.Lookup(key)
					if err != nil {
						t.Fatal(err)
					}
					if r.Terminal != want {
						t.Fatalf("%s: lookup from %v ended at %v, want %v", key, from.ID(), r.Terminal, want)
					}
				}
			}
		})
	}
}

func TestJoinIDCollision(t *testing.T) {
	id := ids.CycloidID{K: 1, A: 5}
	na, err := Start(testConfig(5, id))
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	nb, err := Start(testConfig(5, id))
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	if err := nb.Join(na.Addr()); err == nil {
		t.Fatal("joining with a colliding ID should fail")
	}
}

func TestClusterLookupExactness(t *testing.T) {
	const dim, size = 5, 24
	nodes := cluster(t, dim, size, 7)

	space := ids.NewSpace(dim)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		key := fmt.Sprintf("object-%d", trial)
		want := bruteOwner(space, nodes, nodes[0].keyPoint(key))
		from := nodes[rng.Intn(len(nodes))]
		r, err := from.Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if r.Terminal != want {
			t.Fatalf("lookup %q from %v: terminal %v, want %v", key, from.ID(), r.Terminal, want)
		}
		if r.Timeouts != 0 {
			t.Fatalf("timeouts in a healthy overlay: %+v", r)
		}
	}
}

func TestClusterPutGetFromEveryNode(t *testing.T) {
	nodes := cluster(t, 5, 16, 9)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("file-%d", i)
		if err := nodes[i%len(nodes)].Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("file-%d", i)
		val, _, err := nodes[(i*7)%len(nodes)].Get(key)
		if err != nil {
			t.Fatalf("Get %q: %v", key, err)
		}
		if string(val) != key {
			t.Fatalf("Get %q = %q", key, val)
		}
	}
}

func TestGracefulLeaveMovesKeys(t *testing.T) {
	nodes := cluster(t, 5, 12, 10)
	const items = 24
	for i := 0; i < items; i++ {
		if err := nodes[0].Put(fmt.Sprintf("doc-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Three nodes (not node 0) leave gracefully.
	for _, idx := range []int{3, 7, 9} {
		if err := nodes[idx].Leave(); err != nil {
			t.Fatal(err)
		}
	}
	var live []*Node
	for _, nd := range nodes {
		if !nd.isStopped() {
			live = append(live, nd)
		}
	}
	fleet.Stabilize(live, 2)
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("doc-%d", i)
		val, _, err := live[i%len(live)].Get(key)
		if err != nil {
			t.Fatalf("%q lost after graceful departures: %v", key, err)
		}
		if val[0] != byte(i) {
			t.Fatalf("%q corrupted", key)
		}
	}
}

func TestUngracefulCloseCausesTimeoutsThenRecovers(t *testing.T) {
	nodes := cluster(t, 5, 18, 11)

	// Kill a third of the overlay without notifications.
	for _, idx := range []int{2, 5, 8, 11, 14, 16} {
		nodes[idx].Close()
	}
	var live []*Node
	for _, nd := range nodes {
		if !nd.isStopped() {
			live = append(live, nd)
		}
	}
	timeouts := 0
	for i := 0; i < 30; i++ {
		r, err := live[i%len(live)].Lookup(fmt.Sprintf("probe-%d", i))
		if err != nil {
			continue // a dead-ended route is acceptable pre-repair
		}
		timeouts += r.Timeouts
	}
	if timeouts == 0 {
		t.Error("expected dial failures to register as timeouts")
	}

	// Repair: a few stabilization rounds must restore exactness.
	fleet.Stabilize(live, 3)
	space := ids.NewSpace(5)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("verify-%d", i)
		want := bruteOwner(space, live, live[0].keyPoint(key))
		r, err := live[i%len(live)].Lookup(key)
		if err != nil {
			t.Fatalf("lookup after repair: %v", err)
		}
		if r.Terminal != want {
			t.Fatalf("lookup %q after repair: terminal %v, want %v", key, r.Terminal, want)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	nodes := cluster(t, 5, 10, 12)
	errs := make(chan error, 40)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			nd := nodes[g]
			for i := 0; i < 15; i++ {
				key := fmt.Sprintf("c%d-%d", g, i)
				if err := nd.Put(key, []byte(key)); err != nil {
					errs <- err
					return
				}
				val, _, err := nodes[(g+i)%len(nodes)].Get(key)
				if err != nil {
					errs <- err
					return
				}
				if string(val) != key {
					errs <- fmt.Errorf("%s corrupted", key)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestBackgroundStabilization(t *testing.T) {
	id1 := ids.CycloidID{K: 1, A: 3}
	cfg := testConfig(5, id1)
	cfg.StabilizeEvery = 50 * time.Millisecond
	na, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	id2 := ids.CycloidID{K: 3, A: 17}
	cfg2 := testConfig(5, id2)
	cfg2.StabilizeEvery = 50 * time.Millisecond
	nb, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	if err := nb.Join(na.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let a few background rounds run
	r, err := na.Lookup("anything")
	if err != nil {
		t.Fatal(err)
	}
	if r.Terminal != id1 && r.Terminal != id2 {
		t.Fatalf("terminal %v is neither node", r.Terminal)
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{Dim: 1}); err == nil {
		t.Error("dimension 1 should be rejected")
	}
	bad := ids.CycloidID{K: 9, A: 0}
	if _, err := Start(testConfig(5, bad)); err == nil {
		t.Error("out-of-space ID should be rejected")
	}
	// The deprecated WireCodec field names the one protocol or fails.
	for _, wc := range []string{"json", "mixed", "v1"} {
		cfg := testConfig(5, ids.CycloidID{K: 1, A: 3})
		cfg.WireCodec = wc
		if nd, err := Start(cfg); err == nil {
			nd.Close()
			t.Errorf("WireCodec %q should be rejected", wc)
		}
	}
	for _, wc := range []string{"", "auto", "binary"} {
		cfg := testConfig(5, ids.CycloidID{K: 1, A: 3})
		cfg.WireCodec = wc
		nd, err := Start(cfg)
		if err != nil {
			t.Errorf("WireCodec %q rejected: %v", wc, err)
			continue
		}
		nd.Close()
	}
}

// TestPooledTransportIgnored: the deprecated PooledTransport field has
// no effect — a node configured with it off still carries its calls
// over one reused pooled connection.
func TestPooledTransportIgnored(t *testing.T) {
	a, err := Start(testConfig(5, ids.CycloidID{K: 1, A: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg := testConfig(5, ids.CycloidID{K: 2, A: 9})
	cfg.PooledTransport = false
	b, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 5; i++ {
		if _, err := b.call(a.Addr(), request{Op: "ping"}); err != nil {
			t.Fatal(err)
		}
	}
	if s := b.PoolStats(); s.Dials != 1 || s.Reuses != 4 {
		t.Fatalf("PooledTransport=false should still pool: dials=%d reuses=%d", s.Dials, s.Reuses)
	}
}

func TestDerivedIDFromAddress(t *testing.T) {
	nd, err := Start(Config{Dim: 6, ListenAddr: "127.0.0.1:0", DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if !ids.NewSpace(6).Contains(nd.ID()) {
		t.Fatalf("derived ID %v outside space", nd.ID())
	}
}
