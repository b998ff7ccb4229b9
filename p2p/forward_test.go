package p2p

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cycloid/p2p/memnet"
)

// forwardTimeout is the DialTimeout of the failure-detection tests'
// nodes: long enough that their delays, fractions of it, dwarf the
// fabric's own latency.
const forwardTimeout = 400 * time.Millisecond

// forwardCluster boots 16 memnet nodes with admission control on, so a
// test can give any of them simulated service time (ServiceDelay).
func forwardCluster(t *testing.T, seed int64) (*memnet.Network, []*Node) {
	nw := memnet.New(seed)
	return nw, memCluster(t, nw, 5, 16, seed, func(_ int, c *Config) {
		c.DialTimeout = forwardTimeout
		c.MaxInflight = 64
	})
}

// forwardPath finds a key whose fault-free route from origin takes at
// least hops hops, and returns it with the nodes that route visits after
// the origin, in order.
func forwardPath(t *testing.T, nodes []*Node, origin *Node, hops int) (string, []*Node) {
	t.Helper()
	byAddr := make(map[string]*Node)
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("path-%d", i)
		kp := origin.keyPoint(key)
		var path []*Node
		for at := origin; len(path) < 4*hops; {
			s := at.localStep(kp, false, nil)
			if s.Done || len(s.Candidates) == 0 {
				break
			}
			at = byAddr[s.Candidates[0].Addr]
			path = append(path, at)
		}
		if len(path) >= hops {
			return key, path
		}
	}
	t.Fatalf("no key routes %d hops from %s", hops, origin.Addr())
	return "", nil
}

// TestForwardSlowDownstreamNotCharged: the three nodes after the first
// forwarder each take 0.6 of the timeout to serve the step, so the
// origin and the first forwarder wait for the answer 1.8 timeouts —
// past the point where a caller checking every half timeout must have
// given up on a silent peer. Every node on the path is alive, and none
// may be charged: a forwarder waiting on a slow downstream keeps its
// caller informed with progress frames.
func TestForwardSlowDownstreamNotCharged(t *testing.T) {
	_, nodes := forwardCluster(t, 431)
	origin := nodes[0]
	key, path := forwardPath(t, nodes, origin, 4)
	want, err := origin.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range path[1:4] {
		nd.cfg.ServiceDelay = forwardTimeout * 6 / 10
	}
	before := fleetSum(nodes, timeouts)
	start := time.Now()
	r, err := origin.Lookup(key)
	took := time.Since(start)
	if err != nil {
		t.Fatalf("lookup through slow nodes: %v", err)
	}
	if got := fleetSum(nodes, timeouts) - before; got != 0 {
		t.Errorf("%d timeouts charged to live nodes after %v", got, took)
	}
	if r.Terminal != want.Terminal || r.Hops != want.Hops || r.Timeouts != 0 {
		t.Errorf("route through slow nodes = %+v, want the fault-free %+v", r, want)
	}
	if took < forwardTimeout*3/2 {
		t.Errorf("the route took %v, under 1.5 × the %v timeout: no caller had to wait past a check", took, forwardTimeout)
	}
	for i, nd := range append([]*Node{origin}, path[:3]...) {
		if h := nd.peer(path[i].Addr()); h.strikes != 0 {
			t.Errorf("%s suspects its live next hop %s", nd.Addr(), path[i].Addr())
		}
	}
}

// TestForwardChargesSilentNextHop: the node two hops down is alive but
// takes one and a half timeouts to serve the step, so it never answers
// in time. The first forwarder waits one timeout for it, charges it one
// timeout and a suspicion strike, and routes on, through a next
// candidate that takes 0.6 of a timeout to serve the step in turn. The
// origin, waiting on a live forwarder all along, is charged nothing:
// the forwarder tells it it is still at work as it falls back, not half
// a timeout later.
func TestForwardChargesSilentNextHop(t *testing.T) {
	_, nodes := forwardCluster(t, 433)
	origin := nodes[0]
	key, path := forwardPath(t, nodes, origin, 3)
	fwd, silent := path[0], path[1]
	silent.cfg.ServiceDelay = forwardTimeout * 3 / 2
	var slow *Node
	for _, c := range fwd.localStep(origin.keyPoint(key), false, nil).Candidates {
		if c.Addr != silent.Addr() && c.Addr != origin.Addr() {
			slow = nodes[slices.IndexFunc(nodes, func(nd *Node) bool { return nd.Addr() == c.Addr })]
			break
		}
	}
	if slow == nil {
		t.Fatalf("forwarder %s has no candidate besides %s and the origin", fwd.Addr(), silent.Addr())
	}
	slow.cfg.ServiceDelay = forwardTimeout * 6 / 10
	before, fwdBefore, originBefore := fleetSum(nodes, timeouts), timeouts(fwd), timeouts(origin)
	start := time.Now()
	r, err := origin.Lookup(key)
	took := time.Since(start)
	if err != nil {
		t.Fatalf("lookup past a silent node: %v", err)
	}
	if r.Timeouts != 1 {
		t.Errorf("route past a silent node reports %d timeouts, want 1", r.Timeouts)
	}
	if got := timeouts(fwd) - fwdBefore; got != 1 {
		t.Errorf("forwarder charged %d timeouts, want 1", got)
	}
	if got := timeouts(origin) - originBefore; got != 0 {
		t.Errorf("origin charged %d timeouts while its forwarder waited", got)
	}
	if got := fleetSum(nodes, timeouts) - before; got != uint64(r.Timeouts) {
		t.Errorf("fleet-wide timeouts moved by %d, route reports %d", got, r.Timeouts)
	}
	if h := fwd.peer(silent.Addr()); h.strikes != 1 {
		t.Errorf("forwarder holds %d strikes against the silent node, want 1", h.strikes)
	}
	if took < forwardTimeout || took > 2*forwardTimeout {
		t.Errorf("the route took %v; one attempt should cost between one and two %v timeouts", took, forwardTimeout)
	}
}

// TestForwardBlackholedNextHop: the node two hops down falls off the
// network. The first forwarder's attempt fails at once (the fabric
// refuses the connection), costing it one charged timeout; the origin
// is charged nothing.
func TestForwardBlackholedNextHop(t *testing.T) {
	nw, nodes := forwardCluster(t, 435)
	origin := nodes[0]
	key, path := forwardPath(t, nodes, origin, 3)
	fwd, lost := path[0], path[1]
	nw.Blackhole(fmt.Sprintf("m%d", slices.Index(nodes, lost)))
	before, fwdBefore := fleetSum(nodes, timeouts), timeouts(fwd)
	start := time.Now()
	r, err := origin.Lookup(key)
	took := time.Since(start)
	if err != nil {
		t.Fatalf("lookup past a blackholed node: %v", err)
	}
	if r.Timeouts != 1 || timeouts(fwd)-fwdBefore != 1 || fleetSum(nodes, timeouts)-before != 1 {
		t.Errorf("route reports %d timeouts, forwarder charged %d, fleet %d; want 1 each",
			r.Timeouts, timeouts(fwd)-fwdBefore, fleetSum(nodes, timeouts)-before)
	}
	if took >= forwardTimeout {
		t.Errorf("a refused connection cost the route %v, a whole timeout", took)
	}
}
