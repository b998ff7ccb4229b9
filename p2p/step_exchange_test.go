package p2p

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cycloid/internal/cycloid"
	"cycloid/p2p/memnet"
)

// maxAllocsPerHop is the steady-state heap budget of one routing hop on
// the pooled binary stack, both ends included: the client's encode and
// decode, the pool exchange, the server's dispatch and reply, and the
// route's own bookkeeping amortised over its hops.
const maxAllocsPerHop = 3

// TestLookupHopAllocBudget pins the per-hop allocation cost of a warm
// memnet overlay of default-configured nodes, the configuration the
// repo benchmark's lookup workload runs and every daemon, example and
// harness that leaves tracing alone gets. Every connection is dialed
// and every buffer pool primed before counting, so what remains is what
// each hop costs forever after.
func TestLookupHopAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 24-node overlay")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	nw := memnet.New(417)
	nodes := memCluster(t, nw, 5, 24, 417, nil)
	origin := nodes[0]
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("hop-budget-%d", i)
	}
	lookupAll := func() int {
		hops := 0
		for _, k := range keys {
			r, err := origin.Lookup(k)
			if err != nil {
				t.Fatalf("lookup %s: %v", k, err)
			}
			hops += r.Hops
		}
		return hops
	}
	// Warm: dial every connection these routes use, fill the codec and
	// writer pools, and learn the hop count the counted runs repeat.
	lookupAll()
	hops := lookupAll()
	if hops == 0 {
		t.Fatal("no lookup left the origin node; the budget would be vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := lookupAll(); got != hops {
			t.Fatalf("routes changed between runs: %d hops, then %d", hops, got)
		}
	})
	perHop := allocs / float64(hops)
	t.Logf("%.1f allocs per %d-lookup pass, %d hops: %.2f allocs/hop", allocs, len(keys), hops, perHop)
	if perHop > maxAllocsPerHop {
		t.Errorf("a routing hop allocates %.2f times, budget %d", perHop, maxAllocsPerHop)
	}
}

// TestLookupCountsOnlyWireHops pins which steps are served requests. A
// route's steps at the origin are answered in-process, so
// cycloid_requests_total, summed over every node and op, moves by
// exactly the route's wire hops: not at all for a key the origin owns,
// and by Hops for one whose first step is local and every later one
// crosses the wire.
func TestLookupCountsOnlyWireHops(t *testing.T) {
	nw := memnet.New(419)
	nodes := memCluster(t, nw, 5, 16, 419, nil)
	origin := nodes[0]
	served := func() (sum uint64) {
		for _, nd := range nodes {
			for _, c := range nd.tel.requests {
				sum += c.Value()
			}
			sum += nd.tel.requestOther.Value()
		}
		return sum
	}
	var owned, routed int
	for i := 0; i < 200 && (owned == 0 || routed == 0); i++ {
		key := fmt.Sprintf("served-%d", i)
		before, stepsBefore := served(), fleetSum(nodes, steps)
		r, err := origin.Lookup(key)
		if err != nil {
			t.Fatalf("lookup %s: %v", key, err)
		}
		if got, stepped := served()-before, fleetSum(nodes, steps)-stepsBefore; got != uint64(r.Hops) || stepped != got {
			t.Fatalf("lookup %s: %d hops moved cycloid_requests_total by %d (%d steps)", key, r.Hops, got, stepped)
		}
		if r.Hops == 0 {
			owned++
		} else {
			routed++
		}
	}
	if owned == 0 || routed == 0 {
		t.Fatalf("%d owned and %d routed lookups; want both", owned, routed)
	}
}

// TestForwarderFallback pins where a route pays for a crashed next hop:
// at the node that forwarded to it. The origin's first hop F is alive,
// but F's first-choice candidate C has crashed. F must charge exactly
// one timeout (its own counter, and a suspicion strike against C) and
// forward to its next candidate, so the route ends at the key's owner,
// in no more hops than the simulator with the same member crashed takes;
// the route's Timeouts must equal the fleet-wide movement of
// cycloid_lookup_timeouts_total, and the origin charges nothing.
//
// The simulator may do worse: its fallback candidate can hand the step
// straight back, the two nodes then pass it between them until the
// stall check turns greedy, and the route may end short of the owner.
// The live route tries a step's sender last, so it never does.
func TestForwarderFallback(t *testing.T) {
	const dim = 5
	nw := memnet.New(418)
	nodes := memCluster(t, nw, dim, 16, 418, nil)
	origin := nodes[0]
	space := origin.space
	sim, err := cycloid.New(cycloid.Config{Dim: dim, LeafHalf: 1})
	if err != nil {
		t.Fatal(err)
	}
	byAddr := make(map[string]*Node)
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	sorted := slices.SortedFunc(slices.Values(nodes), func(a, b *Node) int {
		return cmp.Compare(space.Linear(a.ID()), space.Linear(b.ID()))
	})
	rng := rand.New(rand.NewSource(1))
	for _, nd := range sorted {
		if err := sim.JoinAt(nd.ID(), rng); err != nil {
			t.Fatal(err)
		}
	}
	sim.BuildAll()
	timeouts := func(nd *Node) uint64 { return nd.tel.timeouts.Value() }
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("fallback-%d", i)
		kp := origin.keyPoint(key)
		owner := ownerOf(t, nodes, key)
		first := origin.localStep(kp, false, nil)
		if len(first.Candidates) == 0 {
			continue
		}
		fwd := byAddr[first.Candidates[0].Addr]
		next := fwd.localStep(kp, false, nil)
		if len(next.Candidates) < 2 {
			continue
		}
		crashed := byAddr[next.Candidates[0].Addr]
		if crashed == owner || crashed == origin {
			continue
		}
		crashed.Close()
		if err := sim.Fail(space.Linear(crashed.ID())); err != nil {
			t.Fatal(err)
		}
		want := sim.Lookup(space.Linear(origin.ID()), space.Linear(kp))
		fleetBefore, originBefore, fwdBefore := fleetSum(nodes, timeouts), timeouts(origin), timeouts(fwd)
		r, err := origin.Lookup(key)
		if err != nil {
			t.Fatalf("lookup %s past crashed %s: %v", key, crashed.Addr(), err)
		}
		if r.Terminal != owner.ID() || r.Hops > len(want.Hops) {
			t.Errorf("lookup %s ended at %v after %d hops; want the owner %v within the simulator's %d (it ends at %v)",
				key, r.Terminal, r.Hops, owner.ID(), len(want.Hops), space.FromLinear(want.Terminal))
		}
		// The simulator charges the corpse again at every later hop that
		// offers it; the live route carries it on its avoid list.
		if r.Timeouts != 1 {
			t.Errorf("lookup %s: %d timeouts, want 1 (the crashed first choice)", key, r.Timeouts)
		}
		if got := timeouts(fwd) - fwdBefore; got != 1 {
			t.Errorf("forwarder %s charged %d timeouts, want 1", fwd.Addr(), got)
		}
		if got := timeouts(origin) - originBefore; got != 0 {
			t.Errorf("origin charged %d timeouts for a crash two hops down", got)
		}
		if got := fleetSum(nodes, timeouts) - fleetBefore; got != uint64(r.Timeouts) {
			t.Errorf("fleet-wide timeouts moved by %d, route reports %d", got, r.Timeouts)
		}
		if h := fwd.peer(crashed.Addr()); h.strikes != 1 {
			t.Errorf("forwarder holds %d strikes against the crashed peer, want 1", h.strikes)
		}
		return
	}
	t.Fatal("no key routes through a forwarder with a fallback candidate")
}
