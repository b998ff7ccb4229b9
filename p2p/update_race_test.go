package p2p

import (
	"fmt"
	"sync"
	"testing"

	"cycloid/internal/fleet"
	"cycloid/p2p/memnet"
)

// TestUpdatesRaceWithPooledTraffic hammers the membership-update paths
// (handleUpdate/applyJoin/applyLeave/propagate in p2p/update.go) while
// pooled lookup/put/get traffic and stabilization run concurrently over
// the same multiplexed connections. Run under -race this pins the
// locking discipline of the routing state against the new concurrent
// server: a mux stream dispatches many requests from one reader loop,
// so update handlers and step handlers race on the same node in ways a
// connection-per-request server never produced. After
// the storm the overlay must still answer exact lookups.
func TestUpdatesRaceWithPooledTraffic(t *testing.T) {
	nw := memnet.New(13)
	nodes := memCluster(t, nw, 6, 8, 19, nil)
	space := nodes[0].space

	for i := 0; i < 16; i++ {
		if err := nodes[i%len(nodes)].Put(fmt.Sprintf("race-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(nodes))

	// Lookup/get traffic from every node.
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("race-%d", (i+r)%16)
				if _, err := nd.Lookup(key); err != nil {
					errs <- fmt.Errorf("lookup %q: %w", key, err)
					return
				}
				if _, _, err := nd.Get(key); err != nil {
					errs <- fmt.Errorf("get %q: %w", key, err)
					return
				}
			}
		}(i, nd)
	}
	// Write traffic, forcing replication/store paths through the mux.
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := nd.Put(fmt.Sprintf("race-%d", (i+r)%16), []byte{byte(r)}); err != nil {
					errs <- fmt.Errorf("put: %w", err)
					return
				}
			}
		}(i, nd)
	}
	// Membership notifications: every node repeatedly learns of joins
	// and leaves of its peers over the wire, with cycle propagation —
	// the applyJoin/applyLeave/propagate writers racing the readers
	// above. Subjects are real live members, so the routing state stays
	// truthful and post-storm lookups can still be exact.
	for i, nd := range nodes {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				peer := nodes[(i+1+r%(len(nodes)-1))%len(nodes)]
				subj := WireEntry{K: peer.id.K, A: peer.id.A, Addr: peer.Addr()}
				req := request{
					Op: "update", Event: "join", Subject: &subj,
					Propagate: r%2 == 0, TTL: 4,
				}
				// Best effort like the real fan-out: the peer may be mid-
				// stabilization; what matters is the data-race freedom.
				_, _ = nd.call(peer.Addr(), req)
			}
		}(i, nd)
	}
	// Stabilization sweeping the same routing state, two sweeps at a
	// time per node: a periodic sweep can overlap an explicit one.
	for _, nd := range nodes {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(nd *Node) {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					nd.Stabilize()
				}
			}(nd)
		}
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	fleet.Stabilize(nodes, 3)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("race-%d", i)
		want := bruteOwner(space, nodes, nodes[0].keyPoint(key))
		r, err := nodes[i%len(nodes)].Lookup(key)
		if err != nil {
			t.Fatalf("post-storm lookup %q: %v", key, err)
		}
		if r.Terminal != want {
			t.Fatalf("post-storm lookup %q: terminal %v, want %v", key, r.Terminal, want)
		}
	}
}
