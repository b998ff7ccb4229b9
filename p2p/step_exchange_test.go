package p2p

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"

	"cycloid/internal/ids"
	"cycloid/p2p/codec"
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

// poisonPeer serves the v2 mux protocol on ln and answers every request
// with a rejected reply that still carries a full list of bogus
// candidates: a reply the route must discard, decoded into its spare
// step buffer.
func poisonPeer(ln net.Listener) {
	bogus := make([]WireEntry, maxStepCands)
	for i := range bogus {
		bogus[i] = WireEntry{K: 0, A: uint32(i), Addr: fmt.Sprintf("nowhere:%d", i+1)}
	}
	body, err := codec.AppendResponse(nil, &response{Err: "poisoned", Phase: "traverse", Candidates: bogus})
	if err != nil {
		panic(err)
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer c.Close()
			br := bufio.NewReader(c)
			if _, err := br.Discard(codec.PreambleLen); err != nil {
				return
			}
			if _, err := c.Write([]byte(codec.PreambleMuxV2)); err != nil {
				return
			}
			var hdr [4]byte
			for {
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					return
				}
				req := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(br, req); err != nil {
					return
				}
				out := binary.LittleEndian.AppendUint32(nil, uint32(9+len(body)))
				out = append(out, req[:8]...) // correlation ID
				out = append(out, 0)
				if _, err := c.Write(append(out, body...)); err != nil {
					return
				}
			}
		}()
	}
}

// TestRouteFallbackKeepsCandidates pins the step buffers' lifetime
// rule: a route that falls back to the next candidate of the step it
// was walking must find that step intact. The origin's first-choice
// candidate is re-pointed first at an address nothing listens on, then
// at a peer whose rejected reply carries seven bogus candidates —
// decoded, then discarded. Both must cost the route the same: a
// rejected reply is a failed hop, so the two routes take the same hops
// to the same terminal with the same timeouts. A reply decoded over the
// step being walked would send the second route to the bogus entries.
func TestRouteFallbackKeepsCandidates(t *testing.T) {
	nw := memnet.New(418)
	nodes := memCluster(t, nw, 5, 16, 418, nil)
	ln, err := nw.Host("poison").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go poisonPeer(ln)

	origin := nodes[0]
	repoint := func(id ids.CycloidID, addr string) {
		origin.editRS(func(rs *routingState) {
			for s, e := range rs {
				if e != nil && e.ID == id {
					rs[s] = &entry{ID: id, Addr: addr}
				}
			}
		})
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("fallback-%d", i)
		step := origin.localStep(origin.keyPoint(key), false, nil)
		if len(step.Candidates) < 2 {
			continue
		}
		first := toEntry(step.Candidates[0])
		repoint(first.ID, "ghost:1")
		dead, derr := origin.Lookup(key)
		repoint(first.ID, ln.Addr().String())
		rejected, rerr := origin.Lookup(key)
		repoint(first.ID, first.Addr)
		if derr != nil || rerr != nil {
			t.Fatalf("lookup %s: %v (unreachable first hop), %v (rejecting first hop)", key, derr, rerr)
		}
		if rejected.Timeouts == 0 {
			t.Fatalf("lookup %s never charged the rejecting peer", key)
		}
		if rejected.Terminal != dead.Terminal || rejected.Hops != dead.Hops || rejected.Timeouts != dead.Timeouts {
			t.Fatalf("lookup %s: rejecting first hop routed differently from an unreachable one\n unreachable: %+v\n   rejecting: %+v", key, dead, rejected)
		}
		return
	}
	t.Fatal("no key gives the origin a step with a fallback candidate")
}
