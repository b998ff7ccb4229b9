package cycloid_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cycloid/internal/chaosrunner"
	"cycloid/internal/cycloid"
	"cycloid/internal/fleet"
	"cycloid/internal/hashing"
	"cycloid/internal/ids"
	"cycloid/internal/overlay"
	"cycloid/p2p"
	"cycloid/p2p/memnet"
)

// TestLiveOverlayMatchesSimulator is the live half of Fig 5 and of the
// departure experiment (Fig 11, Table 4). It boots live overlays on the
// in-memory transport the way the repo benchmark does — seeded distinct
// IDs, each node joining through a random earlier member, three
// stabilization sweeps — and requires the live stack to be the paper's
// overlay, not an approximation of it: all seven routing-state slots of
// every node equal the simulator's for the same membership, and every
// lookup of 2 000 seeded (origin, key) pairs takes exactly the
// simulator's path length, phase by phase (Fig 7's ascending,
// descending and traverse split), to the same terminal. The departure
// cases then let each node leave gracefully with probability p, run no
// stabilization, and apply the simulator's Leave to the same set: the
// survivors' stale and repaired slots, and every lookup's path and
// terminal, must still match. (Timeouts per lookup differ: the live
// origin remembers the departed nodes it has contacted.)
func TestLiveOverlayMatchesSimulator(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dim, nodes int
		seed       int64
		sweepCost  float64 // requests per node a sweep at rest may cost
	}{
		{"benchmark-d6-n64", 6, 64, 20040426, 15.0},
		{"d8-n256", 8, 256, 7, 20.5},
	} {
		for _, p := range []float64{0, 0.1, 0.3, 0.5} {
			name := tc.name
			if p > 0 {
				name += fmt.Sprintf("/leave-%.1f", p)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				nodes := bootLive(t, tc.dim, tc.nodes, tc.seed)
				members := make([]ids.CycloidID, len(nodes))
				for i, nd := range nodes {
					members[i] = nd.ID()
				}
				oracle, err := chaosrunner.Oracle(tc.dim, members)
				if err != nil {
					t.Fatal(err)
				}
				space := ids.NewSpace(tc.dim)
				rng := rand.New(rand.NewSource(tc.seed))
				var survivors []*p2p.Node
				for _, nd := range nodes {
					if p == 0 || rng.Float64() >= p {
						survivors = append(survivors, nd)
						continue
					}
					if err := nd.Leave(); err != nil {
						t.Fatalf("leave %v: %v", nd.ID(), err)
					}
					if err := oracle.Leave(space.Linear(nd.ID())); err != nil {
						t.Fatal(err)
					}
				}
				var atRest [][]string
				if p == 0 {
					for _, nd := range nodes {
						atRest = append(atRest, nd.PoolPeers())
					}
				}
				requireOracle(t, space, oracle, survivors, rng)
				if p == 0 {
					requireRestingDegree(t, nodes, atRest)
					requireSweepCost(t, nodes, tc.sweepCost)
				}
			})
		}
	}
}

// requireOracle requires every node's slots to equal the oracle's and
// 2 000 seeded lookups to take the oracle's path to its terminal, with
// the oracle's hop count in each routing phase.
func requireOracle(t *testing.T, space ids.Space, oracle *cycloid.Network, nodes []*p2p.Node, rng *rand.Rand) {
	t.Helper()
	for _, nd := range nodes {
		st := nd.State()
		for _, d := range chaosrunner.Deviations(oracle, st) {
			t.Errorf("node %v: %s", nd.ID(), d)
		}
		// Deviations accepts any cubical entry in the flipped block; the
		// simulator holds exactly the closest.
		want, _ := oracle.State(nd.ID())
		if got := st.Cubical; (got == nil) != (want.Cubical == nil) ||
			got != nil && (ids.CycloidID{K: got.K, A: got.A}) != *want.Cubical {
			t.Errorf("node %v: cubical %+v, want %v", nd.ID(), got, want.Cubical)
		}
	}
	hops, simHops := 0, 0
	for i := 0; i < 2000; i++ {
		from := nodes[rng.Intn(len(nodes))]
		key := fmt.Sprintf("fig5-%d", i)
		route, err := from.Lookup(key)
		if err != nil {
			t.Fatalf("lookup %q from %v: %v", key, from.ID(), err)
		}
		want := oracle.Lookup(space.Linear(from.ID()), hashing.KeyString(key, space.Size()))
		wantPhases := p2p.PhaseHops{
			Ascending:  want.PhaseHops(overlay.PhaseAscending),
			Descending: want.PhaseHops(overlay.PhaseDescending),
			Traverse:   want.PhaseHops(overlay.PhaseTraverse),
		}
		hops += route.Hops
		simHops += want.PathLength()
		if term := space.Linear(route.Terminal); route.Hops != want.PathLength() || route.Phases != wantPhases || term != want.Terminal {
			t.Errorf("lookup %q from %v: %d hops %+v to %v, simulator %d hops %+v to %v",
				key, from.ID(), route.Hops, route.Phases, route.Terminal, want.PathLength(), wantPhases, space.FromLinear(want.Terminal))
		}
	}
	t.Logf("%d nodes, mean path length: live %.3f, simulator %.3f", len(nodes), float64(hops)/2000, float64(simHops)/2000)
}

// requireRestingDegree requires that routing opened no connection: after
// the lookups, every node's pool holds connections only to peers it was
// connected to at rest (atRest, by node) — a forwarded route contacts
// nothing but the forwarding node's own entries.
func requireRestingDegree(t *testing.T, nodes []*p2p.Node, atRest [][]string) {
	t.Helper()
	conns := 0
	for i, nd := range nodes {
		now := nd.PoolPeers()
		conns += len(now)
		for _, addr := range now {
			if !slices.Contains(atRest[i], addr) {
				t.Errorf("node %v: lookups opened a connection to %s, not a peer at rest", nd.ID(), addr)
			}
		}
	}
	t.Logf("after the lookups: %.1f pooled peers per node", float64(conns)/float64(len(nodes)))
}

// requireSweepCost runs one more stabilization sweep over an overlay at
// rest, whose every slot already equals the oracle's, and bounds what it
// costs from the fleet-wide cycloid_requests_total deltas: no update
// (every leaf already holds what the slot rule gives it), no ping, and
// at most maxPerNode requests per node.
func requireSweepCost(t *testing.T, nodes []*p2p.Node, maxPerNode float64) {
	t.Helper()
	requests := func() map[string]uint64 {
		byOp := make(map[string]uint64)
		for _, nd := range nodes {
			for name, v := range nd.Telemetry().CounterValues() {
				if op, ok := strings.CutPrefix(name, `cycloid_requests_total{op="`); ok {
					byOp[strings.TrimSuffix(op, `"}`)] += v
				}
			}
		}
		return byOp
	}
	before := requests()
	fleet.Stabilize(nodes, 1)
	sweep, total := requests(), uint64(0)
	for op := range sweep {
		sweep[op] -= before[op]
		total += sweep[op]
	}
	perNode := float64(total) / float64(len(nodes))
	t.Logf("one sweep at rest: %.2f requests per node, by op %v", perNode, sweep)
	if sweep["update"] != 0 || sweep["ping"] != 0 {
		t.Errorf("a sweep at rest sent %d updates and %d pings", sweep["update"], sweep["ping"])
	}
	if perNode > maxPerNode {
		t.Errorf("a sweep at rest cost %.2f requests per node, want at most %.1f", perNode, maxPerNode)
	}
}

// bootLive boots n memnet nodes through fleet.Boot and runs three
// stabilization sweeps — with the benchmark's seed, dimension and size,
// the benchmark's own topology (pinned by fleet.TestBenchmarkTopology).
func bootLive(t *testing.T, dim, n int, seed int64) []*p2p.Node {
	fabric := memnet.New(seed)
	nodes, err := fleet.Boot(fleet.NewDealer(rand.New(rand.NewSource(seed)), ids.NewSpace(dim)), nil, n,
		func(ord int, id ids.CycloidID) (*p2p.Node, error) {
			return p2p.Start(p2p.Config{
				Dim:        dim,
				ID:         &id,
				Transport:  fabric.Host(fmt.Sprintf("n%02d", ord)),
				SpanBuffer: -1,
			})
		})
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
