package p2p

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
	"cycloid/p2p/memnet"
)

// collectSpans merges every node's span buffer — the in-process
// equivalent of scraping each member's /debug/spans.
func collectSpans(nodes []*Node) []*telemetry.Span {
	var all []*telemetry.Span
	for _, nd := range nodes {
		all = append(all, nd.Spans().Snapshot()...)
	}
	return all
}

// findTree returns the reconstructed tree for one trace ID.
func findTree(t *testing.T, nodes []*Node, traceID string) *telemetry.SpanTree {
	t.Helper()
	for _, tree := range telemetry.BuildTrees(collectSpans(nodes)) {
		if tree.TraceID == traceID {
			return tree
		}
	}
	t.Fatalf("trace %s not found in any span buffer", traceID)
	return nil
}

func rootAnnotations(tree *telemetry.SpanTree) map[string]bool {
	out := make(map[string]bool)
	if tree.Root != nil {
		for _, a := range tree.Root.Span.Annotations {
			out[a] = true
		}
	}
	return out
}

// victimKey finds a key owned by the given node.
func victimKey(t *testing.T, nodes []*Node, victim *Node) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("k%d", i)
		if ownerOf(t, nodes, k) == victim {
			return k
		}
	}
	t.Fatal("no key owned by victim")
	return ""
}

// hookTransport wraps a Transport, counts the requests sent to each
// address, and after a fixed number of allowed sends to one address
// either runs a one-shot hook immediately before the next request goes
// out (arm) or fails every further send and dial (armBlock) — the
// deterministic levers for changing cluster state between a route and
// its fetch. A send is one Write on a pooled connection after its
// handshake: the tests drive one request at a time, so no two frames
// share a Write.
type hookTransport struct {
	inner Transport

	mu      sync.Mutex
	sends   map[string]int
	addr    string
	allow   int
	hook    func()
	blocked bool
}

func (h *hookTransport) Listen(addr string) (net.Listener, error) { return h.inner.Listen(addr) }

func (h *hookTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	h.mu.Lock()
	fail := addr == h.addr && h.blocked && h.allow == 0
	h.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("hook: %s blocked", addr)
	}
	c, err := h.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &hookConn{Conn: c, h: h, addr: addr}, nil
}

// send counts one request to addr and applies the armed lever.
func (h *hookTransport) send(addr string) error {
	h.mu.Lock()
	if h.sends == nil {
		h.sends = make(map[string]int)
	}
	h.sends[addr]++
	run := func() {}
	fail := false
	if addr == h.addr && (h.hook != nil || h.blocked) {
		if h.allow > 0 {
			h.allow--
		} else if h.blocked {
			fail = true
		} else {
			run, h.hook = h.hook, nil
		}
	}
	h.mu.Unlock()
	if fail {
		return fmt.Errorf("hook: %s blocked", addr)
	}
	run()
	return nil
}

// hookConn passes the handshake through and reports every later Write
// to its transport as one request.
type hookConn struct {
	net.Conn
	h      *hookTransport
	addr   string
	opened bool
}

func (c *hookConn) Write(p []byte) (int, error) {
	if c.opened {
		if err := c.h.send(c.addr); err != nil {
			return 0, err
		}
	}
	c.opened = true
	return c.Conn.Write(p)
}

func (h *hookTransport) sendsTo(addr string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sends[addr]
}

// arm runs hook once, before the request to addr that follows allow
// more allowed sends.
func (h *hookTransport) arm(addr string, allow int, hook func()) {
	h.mu.Lock()
	h.addr, h.allow, h.hook, h.blocked = addr, allow, hook, false
	h.mu.Unlock()
}

// armBlock fails every send and dial to addr after allow more allowed
// sends.
func (h *hookTransport) armBlock(addr string, allow int) {
	h.mu.Lock()
	h.addr, h.allow, h.hook, h.blocked = addr, allow, nil, true
	h.mu.Unlock()
}

// saturate fills a 1-slot, 1-deep admission controller from outside the
// wire path. The returned function releases the slot and drains the
// parked queue occupant.
func saturate(t *testing.T, nd *Node) func() {
	t.Helper()
	release, busy := nd.adm.admit(0)
	if busy != nil {
		t.Fatalf("saturate: slot admit rejected: %+v", busy)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if r2, _ := nd.adm.admit(0); r2 != nil {
			r2()
		}
	}()
	waitFor(t, func() bool { return nd.adm.queued.Load() == 1 })
	return func() {
		release()
		<-done
	}
}

// TestTraceSampledLookupTree: with TraceSample=1, a cross-node Put and Get each reconstruct into one complete
// rooted tree whose attribution telescopes to the root duration.
func TestTraceSampledLookupTree(t *testing.T) {
	nw := memnet.New(404)
	nodes := memCluster(t, nw, 6, 8, 404, func(ord int, cfg *Config) {
		cfg.Replicas = 3
		cfg.TraceSample = 1
		cfg.SpanBuffer = 1 << 14
	})
	victim := nodes[0]
	key := victimKey(t, nodes, victim)
	origin := nodes[3]

	if err := origin.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, r, err := origin.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if r.TraceID == "" {
		t.Fatal("TraceSample=1 Get returned no trace ID")
	}
	tree := findTree(t, nodes, r.TraceID)
	if tree.Root == nil || tree.Root.Span.Name != "get" {
		t.Fatalf("tree root = %+v, want client get span", tree.Root)
	}
	if viol := tree.Check(false); len(viol) != 0 {
		t.Fatalf("sampled get tree incomplete: %v", viol)
	}
	attr := tree.Attribution()
	if attr.Total() != time.Duration(tree.Root.Span.Duration) {
		t.Errorf("attribution %v does not telescope to root duration %v",
			attr.Total(), time.Duration(tree.Root.Span.Duration))
	}
	if r.Hops > 0 && attr.Network == 0 {
		t.Error("multi-hop get attributed zero network time")
	}
	if origin.Telemetry().CounterValue("cycloid_traces_sampled_total") == 0 {
		t.Error("traces_sampled_total did not move")
	}
}

// TestTraceStepSpansMatchRoute: a TraceSample=1 Get that routes past a
// crashed member records, across the span buffers of every node, one
// successful step call span per hop, annotated with the phase of the
// decision that chose it, and one failed step span per timeout. The
// origin makes the first hop; every later one is the single successful
// child call span of a forwarder's step server span, recorded by that
// forwarder. Per phase, the annotated spans sum to the route's Phases.
func TestTraceStepSpansMatchRoute(t *testing.T) {
	nw := memnet.New(5)
	nodes := memCluster(t, nw, 6, 8, 5, func(ord int, cfg *Config) {
		cfg.TraceSample = 1
		cfg.SpanBuffer = 1 << 14
	})
	// The victim is the reader's most frequent first choice, so routes
	// from the reader run into it.
	reader := nodes[0]
	firsts := make(map[string]int)
	for i := 0; i < 64; i++ {
		step := reader.localStep(reader.keyPoint(fmt.Sprintf("step%d", i)), false, nil)
		if len(step.Candidates) > 0 {
			firsts[step.Candidates[0].Addr]++
		}
	}
	victim := nodes[1]
	for _, nd := range nodes[1:] {
		if firsts[nd.Addr()] > firsts[victim.Addr()] {
			victim = nd
		}
	}
	var keys []string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("step%d", i)
		if ownerOf(t, nodes, k) == victim {
			continue
		}
		if err := reader.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	victim.Close()

	for _, k := range keys {
		_, r, err := reader.Get(k)
		if err != nil || r.Timeouts == 0 {
			continue
		}
		tree := findTree(t, nodes, r.TraceID)
		if tree.Root == nil {
			t.Fatal("sampled get has no root span")
		}
		phases := make(map[string]int)
		hops, failed, forwarded := 0, 0, 0
		callers := make(map[string]bool)
		var walk func(sn *telemetry.SpanNode)
		walk = func(sn *telemetry.SpanNode) {
			if s := sn.Span; s.Kind == telemetry.SpanServer && s.Name == "step" {
				calls := 0
				for _, c := range sn.Children {
					if cs := c.Span; cs.Kind == telemetry.SpanCall && cs.Name == "step" && cs.Err == "" {
						calls++
						if cs.Node != s.Node {
							t.Errorf("step call span by %s under %s's server span", cs.Node, s.Node)
						}
					}
				}
				if calls > 1 {
					t.Errorf("forwarder %s made %d successful step calls for one step", s.Node, calls)
				}
				forwarded += calls
			}
			if s := sn.Span; s.Kind == telemetry.SpanCall && s.Name == "step" {
				if s.Err == "" {
					callers[s.Node] = true
				}
				switch phase := stepPhase(s); {
				case s.Err != "":
					failed++
				case phase == "":
					t.Errorf("successful step span to %s carries no phase: %v", s.Peer, s.Annotations)
				default:
					hops++
					phases[phase]++
				}
			}
			for _, c := range sn.Children {
				walk(c)
			}
		}
		walk(tree.Root)
		if hops != r.Hops {
			t.Errorf("%d phase-annotated step spans, route reports %d hops", hops, r.Hops)
		}
		if forwarded != r.Hops-1 || len(callers) != r.Hops {
			t.Errorf("%d hops: %d made by forwarders, from %d distinct nodes; want %d and %d",
				r.Hops, forwarded, len(callers), r.Hops-1, r.Hops)
		}
		for ph, c := range map[string]int{"ascending": r.Phases.Ascending, "descending": r.Phases.Descending, "traverse": r.Phases.Traverse} {
			if phases[ph] != c {
				t.Errorf("phase %s: %d annotated step spans, route reports %d (spans %v, route %v)", ph, phases[ph], c, phases, r.Phases)
			}
		}
		if failed != r.Timeouts {
			t.Errorf("%d failed step spans, route reports %d timeouts", failed, r.Timeouts)
		}
		return
	}
	t.Fatal("no Get routed past the crashed member")
}

// stepPhase returns the routing phase a step call span is annotated
// with, "" when it has none.
func stepPhase(s *telemetry.Span) string {
	for _, a := range s.Annotations {
		if p, ok := strings.CutPrefix(a, "phase="); ok {
			return p
		}
	}
	return ""
}

// TestTraceForcedOnShed: at TraceSample=0, a route that sheds around a
// saturated node forces sampling and still reconstructs into a single
// rooted tree annotated "shed" (and "late", since the first exchange
// went out unstamped).
func TestTraceForcedOnShed(t *testing.T) {
	nw := memnet.New(505)
	nodes := memCluster(t, nw, 6, 8, 505, func(ord int, cfg *Config) {
		cfg.Replicas = 3
		cfg.SpanBuffer = 1 << 14 // tracing on, sampling probability zero
		if ord == 0 {
			cfg.MaxInflight = 1
			cfg.QueueDepth = 1
		}
	})
	victim := nodes[0]
	key := victimKey(t, nodes, victim)
	origin := nodes[3]
	if err := origin.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	unsaturate := saturate(t, victim)
	defer unsaturate()

	forcedBefore := origin.Telemetry().CounterValue("cycloid_traces_forced_total")
	v, r, err := origin.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get around saturated owner = %q, %v", v, err)
	}
	if r.TraceID == "" {
		t.Fatal("shed did not force a trace ID onto the route")
	}
	if got := origin.Telemetry().CounterValue("cycloid_traces_forced_total"); got <= forcedBefore {
		t.Error("traces_forced_total did not move")
	}
	tree := findTree(t, nodes, r.TraceID)
	if tree.Root == nil {
		t.Fatal("forced trace has no root")
	}
	if viol := tree.Check(false); len(viol) != 0 {
		t.Fatalf("forced shed tree incomplete: %v", viol)
	}
	ann := rootAnnotations(tree)
	if !ann["shed"] {
		t.Errorf("root annotations = %v, want shed", tree.Root.Span.Annotations)
	}
	if !ann["late"] {
		t.Errorf("root annotations = %v, want late (first exchange predated sampling)", tree.Root.Span.Annotations)
	}
}

// TestTraceForcedOnOwnerCrash: at TraceSample=0, an owner that dies
// between route and fetch forces sampling; the replica-fallback arc
// (timeout, re-route, surviving copy) reconstructs into a rooted tree
// annotated "timeout" and "replica-fallback".
func TestTraceForcedOnOwnerCrash(t *testing.T) {
	nw := memnet.New(606)
	var gate *hookTransport
	const readerOrd = 3
	nodes := memCluster(t, nw, 6, 8, 606, func(ord int, cfg *Config) {
		cfg.Replicas = 3
		cfg.SpanBuffer = 1 << 14
		if ord == readerOrd {
			gate = &hookTransport{inner: cfg.Transport}
			cfg.Transport = gate
		}
	})
	victim := nodes[0]
	key := victimKey(t, nodes, victim)
	reader := nodes[readerOrd]
	if err := reader.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Count the route's requests to the owner, then let exactly that
	// many through on the real Get: the fetch that follows hits a
	// corpse.
	before := gate.sendsTo(victim.Addr())
	if _, err := reader.Lookup(key); err != nil {
		t.Fatal(err)
	}
	routeSends := gate.sendsTo(victim.Addr()) - before
	gate.armBlock(victim.Addr(), routeSends)

	v, r, err := reader.Get(key)
	if err != nil || string(v) != "v" {
		t.Fatalf("Get across owner crash = %q, %v", v, err)
	}
	if r.Timeouts == 0 {
		t.Fatal("owner crash charged no timeout; the gate did not fire on the fetch")
	}
	if r.TraceID == "" {
		t.Fatal("owner crash did not force a trace ID onto the route")
	}
	tree := findTree(t, nodes, r.TraceID)
	if tree.Root == nil {
		t.Fatal("forced trace has no root")
	}
	if viol := tree.Check(false); len(viol) != 0 {
		t.Fatalf("replica-fallback tree incomplete: %v", viol)
	}
	ann := rootAnnotations(tree)
	if !ann["timeout"] || !ann["replica-fallback"] {
		t.Errorf("root annotations = %v, want timeout + replica-fallback", tree.Root.Span.Annotations)
	}
}

// TestTraceAcceptance is the issue's end-to-end criterion: a sampled
// lookup across >=3 memnet nodes that experiences one shed-and-retry
// and one replica fallback reconstructs into a single rooted span tree
// whose per-hop attribution sums to within 5% of the client-observed
// latency.
func TestTraceAcceptance(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		nw := memnet.New(707)
		var hook *hookTransport
		const originOrd = 3
		nodes := memCluster(t, nw, 6, 8, 707, func(ord int, cfg *Config) {
			cfg.Replicas = 3
			cfg.TraceSample = 1
			cfg.SpanBuffer = 1 << 14
			if ord == 0 {
				cfg.MaxInflight = 1
				cfg.QueueDepth = 1
			}
			if ord == originOrd {
				hook = &hookTransport{inner: cfg.Transport}
				cfg.Transport = hook
			}
		})
		victim := nodes[0]
		key := victimKey(t, nodes, victim)
		origin := nodes[originOrd]
		if err := origin.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}

		// Count the route's requests to the owner, then saturate its
		// admission controller immediately before the request after
		// those — the Get's fetch. The fetch is shed and retried
		// until the retries are shed too; the read then falls back
		// through the replica set.
		before := hook.sendsTo(victim.Addr())
		if _, err := origin.Lookup(key); err != nil {
			t.Fatal(err)
		}
		routeSends := hook.sendsTo(victim.Addr()) - before
		var unsaturate func()
		hook.arm(victim.Addr(), routeSends, func() { unsaturate = saturate(t, victim) })
		defer func() {
			if unsaturate != nil {
				unsaturate()
			}
		}()

		t0 := time.Now()
		v, r, err := origin.GetContext(context.Background(), key)
		observed := time.Since(t0)
		if err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		if unsaturate == nil {
			t.Fatal("saturation hook never fired; fetch was not shed")
		}
		if r.TraceID == "" {
			t.Fatal("no trace ID on the route")
		}
		retries := origin.Telemetry().CounterValue("cycloid_retries_total")
		if retries == 0 {
			t.Fatal("fetch against the saturated owner was not retried")
		}

		tree := findTree(t, nodes, r.TraceID)
		if tree.Root == nil {
			t.Fatal("no root span")
		}
		if viol := tree.Check(false); len(viol) != 0 {
			t.Fatalf("acceptance tree incomplete: %v", viol)
		}
		ann := rootAnnotations(tree)
		if !ann["shed"] || !ann["replica-fallback"] {
			t.Fatalf("root annotations = %v, want shed + replica-fallback", tree.Root.Span.Annotations)
		}
		// The tree must span at least 3 distinct nodes.
		seen := map[string]bool{}
		var walk func(n *telemetry.SpanNode)
		walk = func(n *telemetry.SpanNode) {
			seen[n.Span.Node] = true
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(tree.Root)
		if len(seen) < 3 {
			t.Fatalf("trace touched %d nodes, want >= 3", len(seen))
		}
		// Per-hop attribution must sum to within 5% of the
		// client-observed latency.
		attr := tree.Attribution()
		diff := observed - attr.Total()
		if diff < 0 {
			diff = -diff
		}
		if diff > observed/20 {
			t.Fatalf("attribution %v (total %v) vs observed %v: off by %v (> 5%%)",
				attr, attr.Total(), observed, diff)
		}
	})
}

// TestTraceUnsampledAllocs pins the unsampled hot path at zero
// allocations: at TraceSample=0 a full begin/call/end cycle must not
// allocate, keeping traced builds inside the node's lookup alloc budget.
func TestTraceUnsampledAllocs(t *testing.T) {
	nw := memnet.New(808)
	cfg := memConfig(nw, "alloc", 6, ids.CycloidID{K: 3, A: 21})
	cfg.SpanBuffer = 1024
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	allocs := testing.AllocsPerRun(2000, func() {
		ot := nd.beginOp("lookup", "k")
		req := request{Op: "step"}
		sid, t0 := ot.startCall(&req)
		ot.endCall(sid, t0, "step", "peer:1", nil)
		if nd.endOp(ot, nil) != "" {
			t.Fatal("unsampled op returned a trace ID")
		}
	})
	if allocs != 0 {
		t.Errorf("unsampled trace cycle allocates %.1f/op, want 0", allocs)
	}
	// With span recording disabled entirely, beginOp must return nil and
	// every hook must no-op through it.
	cfg2 := memConfig(nw, "alloc2", 6, ids.CycloidID{K: 4, A: 21})
	nd2, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()
	if ot := nd2.beginOp("lookup", "k"); ot != nil {
		t.Fatal("beginOp without a span buffer returned a live scope")
	}
}
