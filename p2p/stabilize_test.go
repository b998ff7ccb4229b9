package p2p_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cycloid/internal/chaosrunner"
	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/p2p"
	"cycloid/p2p/memnet"
)

// TestStabilizeRelinksOrphan replays the round that orphaned a node in
// chaos seed 107 (TestChaosReplicatedCrashTolerance/G). In this d=6
// membership no node has cyclic index 4, so (5,10) has no routing-table
// entries; its only distinct entries are its outside leaves (1,9) and
// (5,11), and both crash at once (f=2 < R=3). Its next sweep finds no
// live entry, and (3,4) and (5,14) close the outside ring around it
// unless the leaf refresh can still reach the neighbourhood it knew
// before the crash. Required: no leaf slot deviates from the oracle
// after one sweep, and no slot at all after three.
func TestStabilizeRelinksOrphan(t *testing.T) {
	const dim = 6
	members := []ids.CycloidID{
		{K: 1, A: 14}, {K: 0, A: 61}, {K: 2, A: 57}, {K: 1, A: 37}, {K: 5, A: 14}, {K: 5, A: 11},
		{K: 5, A: 10}, {K: 3, A: 4}, {K: 0, A: 40}, {K: 1, A: 9}, {K: 0, A: 50},
	}
	crashed := map[ids.CycloidID]bool{{K: 5, A: 11}: true, {K: 1, A: 9}: true}
	fabric := memnet.New(107)
	var nodes []*p2p.Node
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	for i, id := range members {
		nd, err := p2p.Start(p2p.Config{
			Dim:         dim,
			ID:          &id,
			DialTimeout: time.Second,
			Transport:   fabric.Host(fmt.Sprintf("n%02d", i)),
			Replicas:    3,
			SpanBuffer:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
		if err := fleet.Join(nd, nodes[:i], 0); err != nil {
			t.Fatalf("join %v: %v", id, err)
		}
	}
	fleet.Stabilize(nodes, 3)

	var live []*p2p.Node
	var liveIDs []ids.CycloidID
	for _, nd := range nodes {
		if crashed[nd.ID()] {
			nd.Close() // ungraceful: no handoff, no notifications
			continue
		}
		live = append(live, nd)
		liveIDs = append(liveIDs, nd.ID())
	}
	oracle, err := chaosrunner.Oracle(dim, liveIDs)
	if err != nil {
		t.Fatal(err)
	}
	deviations := func(leavesOnly bool) (out []string) {
		for _, nd := range live {
			for _, d := range chaosrunner.Deviations(oracle, nd.State()) {
				if !leavesOnly || strings.HasPrefix(d, "inside") || strings.HasPrefix(d, "outside") {
					out = append(out, fmt.Sprintf("%v: %s", nd.ID(), d))
				}
			}
		}
		return out
	}
	fleet.Stabilize(live, 1)
	for _, d := range deviations(true) {
		t.Errorf("after one sweep: %s", d)
	}
	fleet.Stabilize(live, 2)
	for _, d := range deviations(false) {
		t.Errorf("after three sweeps: %s", d)
	}
}
