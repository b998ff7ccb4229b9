package p2p

import (
	"fmt"
	"math/rand"
	"testing"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
)

// TestLiveChurn interleaves joins, graceful leaves, puts and gets on a
// real TCP overlay — the deployed counterpart of the Section 4.4
// experiment — and checks that no stored item is ever lost and lookups
// stay exact after stabilization.
func TestLiveChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("live churn test skipped in -short mode")
	}
	const dim = 6
	space := ids.NewSpace(dim)
	rng := rand.New(rand.NewSource(77))

	deal := fleet.NewDealer(rng, space)
	start := func(_ int, id ids.CycloidID) (*Node, error) { return Start(testConfig(dim, id)) }
	nodes, err := fleet.Boot(deal, nil, 15, start)
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Stabilize(nodes, 3)

	const items = 20
	for i := 0; i < items; i++ {
		if err := nodes[i%len(nodes)].Put(key(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 6; round++ {
		// One join and one graceful leave per round.
		if nodes, err = fleet.Boot(deal, nodes, 1, start); err != nil {
			t.Fatal(err)
		}
		idx := rng.Intn(len(nodes) - 1) // never the one that just joined
		leaver := nodes[idx]
		if err := leaver.Leave(); err != nil {
			t.Fatalf("round %d: leave: %v", round, err)
		}
		nodes = append(nodes[:idx], nodes[idx+1:]...)
		fleet.Stabilize(nodes, 1)

		// Every item must still be retrievable through any node.
		for i := 0; i < items; i++ {
			val, _, err := nodes[(round+i)%len(nodes)].Get(key(i))
			if err != nil {
				t.Fatalf("round %d: %s lost: %v", round, key(i), err)
			}
			if val[0] != byte(i) {
				t.Fatalf("round %d: %s corrupted", round, key(i))
			}
		}
	}

	// Final exactness check against the placement ground truth.
	fleet.Stabilize(nodes, 2)
	for trial := 0; trial < 30; trial++ {
		k := fmt.Sprintf("final-%d", trial)
		want := bruteOwner(space, nodes, nodes[0].keyPoint(k))
		r, err := nodes[trial%len(nodes)].Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if r.Terminal != want {
			t.Fatalf("lookup %q: terminal %v, want %v", k, r.Terminal, want)
		}
	}
}

func key(i int) string { return fmt.Sprintf("churn-item-%d", i) }

func TestLifecycleEdgeCases(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 2, A: 3})
	if err := nd.Leave(); err != nil {
		t.Fatalf("leaving a one-node overlay: %v", err)
	}
	if err := nd.Leave(); err != ErrStopped {
		t.Fatalf("second Leave = %v, want ErrStopped", err)
	}
	if err := nd.Join("127.0.0.1:1"); err != ErrStopped {
		t.Fatalf("Join after stop = %v, want ErrStopped", err)
	}
	if _, err := nd.Lookup("x"); err != ErrStopped {
		t.Fatalf("Lookup after stop = %v, want ErrStopped", err)
	}
	if err := nd.Close(); err != nil {
		t.Fatalf("Close after Leave must be idempotent: %v", err)
	}
}

func TestJoinUnreachableBootstrap(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 1, A: 7})
	if err := nd.Join("127.0.0.1:1"); err == nil {
		t.Fatal("joining through a dead bootstrap should fail")
	}
	// The node must remain usable as a standalone overlay.
	if err := nd.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	val, _, err := nd.Get("k")
	if err != nil || string(val) != "v" {
		t.Fatalf("standalone after failed join: %q, %v", val, err)
	}
}

func TestGetMissingKeyAcrossWire(t *testing.T) {
	na := bareNode(t, 5, ids.CycloidID{K: 1, A: 4})
	nb := bareNode(t, 5, ids.CycloidID{K: 2, A: 21})
	if err := nb.Join(na.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := na.Get("never-stored"); err != ErrNotFound {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
}
