// Distributed-tracing plumbing for the live node: the per-operation
// trace scope (opTrace), wire-context stamping, and the span recording
// hooks the lookup/retry/replication/admission paths call.
//
// Design constraints, in order:
//
//  1. The unsampled hot path must stay within the node's ≤1 alloc/op
//     lookup budget and <1% overhead. opTrace instances are pooled and
//     every tracing hook starts with a nil-or-unsampled check, so an
//     operation that is never sampled costs two pool operations, one
//     clock read, and a handful of branches — no allocations.
//  2. Anomalies must always be observable. force() flips an operation
//     to sampled mid-flight (shed, timeout, retry exhaustion, greedy
//     fallback), assigning trace IDs late; spans recorded from then on
//     carry the context, and the root span is annotated "late" so a
//     collector knows earlier exchanges of the same operation went
//     unstamped.
//  3. Correlation is by value, not by clock. A call span's own ID rides
//     the request as ParentSpan, so the receiver's server span points
//     at the exact exchange that caused it; reconstruction needs no
//     cross-node clock agreement (see internal/telemetry/span.go).
//
// The hop budget (TraceFlags bits 1-7) bounds cascade depth: each
// propagation step (server-side replication fan-out) decrements it, and
// a scope with budget 0 records its call spans locally but stops
// stamping requests, so a forwarding loop cannot generate spans
// forever.
package p2p

import (
	"sync"
	"time"

	"cycloid/internal/telemetry"
)

// traceHopBudget is the initial hop budget stamped on client-origin
// requests (7 bits available; lookups are iterative so depth beyond
// owner → replica fan-out is already anomalous).
const traceHopBudget = 16

// mix is the splitmix64 finalizer behind backoff jitter, span and trace
// IDs, and the per-node seed of the ID stream.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	return x ^ x>>33
}

// nextSpanID draws one nonzero 64-bit ID from the node's private
// splitmix64 stream — the same mixer as jitter(), but seeded from the
// node ID so memnet harnesses stay deterministic.
func (n *Node) nextSpanID() uint64 {
	x := mix(n.traceState.Add(0x9e3779b97f4a7c15))
	if x == 0 {
		x = 1
	}
	return x
}

// opTrace is one operation's tracing scope: the client-side root of a
// Get/Put/Lookup, or the server-side handling of one admitted request.
// Instances are pooled; all fields are reset on checkout.
type opTrace struct {
	n     *Node
	name  string
	key   string
	start time.Time

	hi, lo  uint64 // 128-bit trace ID
	root    uint64 // this scope's own span ID
	parent  uint64 // server scopes: the caller's call-span ID
	sampled bool
	late    bool  // sampling forced after exchanges already went out
	budget  uint8 // remaining hop budget for stamped child calls

	calls    int   // call spans recorded under this scope
	attempts int   // outbound exchanges issued, sampled or not
	queue    int64 // server scopes: admission-queue wait (ns)
	disk     int64 // fsync time charged to this scope (ns)

	annotations []string
}

var opTracePool = sync.Pool{New: func() any { return new(opTrace) }}

func (ot *opTrace) reset(n *Node, name, key string) {
	ot.n = n
	ot.name, ot.key = name, key
	ot.start = time.Now()
	ot.hi, ot.lo, ot.root, ot.parent = 0, 0, 0, 0
	ot.sampled, ot.late = false, false
	ot.budget = traceHopBudget
	ot.calls, ot.attempts = 0, 0
	ot.queue, ot.disk = 0, 0
	ot.annotations = ot.annotations[:0]
}

// beginOp opens the client-side root scope of one operation, rolling
// the sampling dice. Returns nil when span recording is disabled, and
// every method below is nil-safe, so call sites need no guards.
func (n *Node) beginOp(name, key string) *opTrace {
	if n.spans == nil {
		return nil
	}
	ot := opTracePool.Get().(*opTrace)
	ot.reset(n, name, key)
	if n.traceThreshold > 0 && n.nextSpanID() < n.traceThreshold {
		ot.sample()
		n.tel.tracesSampled.Inc()
	}
	return ot
}

func (ot *opTrace) sample() {
	ot.hi, ot.lo = ot.n.nextSpanID(), ot.n.nextSpanID()
	ot.root = ot.n.nextSpanID()
	ot.sampled = true
}

// force turns sampling on mid-operation — the anomaly paths always
// capture a trace even at TraceSample 0 — and annotates the scope with
// the reason. Idempotent per reason.
func (ot *opTrace) force(reason string) {
	if ot == nil {
		return
	}
	if !ot.sampled {
		if ot.attempts > 0 {
			ot.late = true
		}
		ot.sample()
		ot.n.tel.tracesForced.Inc()
	}
	ot.annotate(reason)
}

func (ot *opTrace) annotate(a string) {
	if ot == nil || !ot.sampled {
		return
	}
	for _, have := range ot.annotations {
		if have == a {
			return
		}
	}
	ot.annotations = append(ot.annotations, a)
}

// startCall opens one outbound-exchange span under this scope and
// stamps the request with the trace context, the fresh span ID as the
// receiver's parent, and the decremented hop budget. Unsampled or nil
// scopes stamp nothing and return span ID 0 (endCall then no-ops).
func (ot *opTrace) startCall(req *request) (uint64, time.Time) {
	if ot == nil {
		return 0, time.Time{}
	}
	ot.attempts++
	if !ot.sampled {
		return 0, time.Time{}
	}
	id := ot.n.nextSpanID()
	if ot.budget > 0 {
		req.TraceHi, req.TraceLo, req.ParentSpan = ot.hi, ot.lo, id
		req.TraceFlags = 1 | (ot.budget-1)<<1
	}
	ot.calls++
	return id, time.Now()
}

// endCall records the exchange span opened by startCall, carrying notes
// as its annotations (a route's step spans note the hop they made).
func (ot *opTrace) endCall(id uint64, t0 time.Time, op, peer string, err error, notes ...string) {
	if id == 0 {
		return
	}
	s := &telemetry.Span{
		TraceHi: ot.hi, TraceLo: ot.lo,
		ID: id, Parent: ot.root,
		Kind: telemetry.SpanCall, Name: op,
		Node: ot.n.addr, Peer: peer,
		Start: t0.UnixNano(), Duration: int64(time.Since(t0)),
		Annotations: notes,
	}
	if ot.budget == 0 {
		s.Annotations = append(s.Annotations, "budget-exhausted")
	}
	if err != nil {
		s.Err = err.Error()
	}
	ot.n.recordSpan(s)
}

// endOp closes the root scope, records the root span when sampled, and
// returns the trace ID for surfacing (Route.TraceID, loadgen
// exemplars). The scope is recycled; do not use it afterwards.
func (n *Node) endOp(ot *opTrace, err error) string {
	if ot == nil {
		return ""
	}
	var id string
	if ot.sampled {
		if ot.late {
			ot.annotate("late")
		}
		s := &telemetry.Span{
			TraceHi: ot.hi, TraceLo: ot.lo, ID: ot.root,
			Kind: telemetry.SpanClient, Name: ot.name, Key: ot.key,
			Node:  n.addr,
			Start: ot.start.UnixNano(), Duration: int64(time.Since(ot.start)),
			Disk: ot.disk, Calls: ot.calls,
		}
		if len(ot.annotations) > 0 {
			s.Annotations = append([]string(nil), ot.annotations...)
		}
		if err != nil {
			s.Err = err.Error()
		}
		n.recordSpan(s)
		id = s.TraceID()
	}
	ot.n = nil
	opTracePool.Put(ot)
	return id
}

// beginServer opens the server-side scope for one traced inbound
// request. The scope's parent is the caller's call-span ID carried in
// the request; its hop budget is the caller's, so fan-out from here
// propagates one level shallower.
func (n *Node) beginServer(req *request) *opTrace {
	ot := opTracePool.Get().(*opTrace)
	ot.reset(n, req.Op, req.Key)
	ot.hi, ot.lo = req.TraceHi, req.TraceLo
	ot.parent = req.ParentSpan
	ot.root = n.nextSpanID()
	ot.sampled = true
	ot.budget = req.TraceFlags >> 1
	return ot
}

// endServer records the server span — queue wait, fsync time, and
// fan-out calls included — and recycles the scope.
func (n *Node) endServer(ot *opTrace, errStr string) {
	if ot == nil {
		return
	}
	s := &telemetry.Span{
		TraceHi: ot.hi, TraceLo: ot.lo, ID: ot.root, Parent: ot.parent,
		Kind: telemetry.SpanServer, Name: ot.name, Key: ot.key, Node: n.addr,
		Start: ot.start.UnixNano(), Duration: int64(time.Since(ot.start)),
		Queue: ot.queue, Disk: ot.disk, Calls: ot.calls,
		Err: errStr,
	}
	if len(ot.annotations) > 0 {
		s.Annotations = append([]string(nil), ot.annotations...)
	}
	n.recordSpan(s)
	ot.n = nil
	opTracePool.Put(ot)
}

func (n *Node) recordSpan(s *telemetry.Span) {
	n.spans.Add(s)
	n.tel.spansRecorded.Inc()
}

// syncStoreTimed is syncStore with the fsync time charged to the
// scope's disk phase, so attribution can separate durability cost from
// service proper.
func (n *Node) syncStoreTimed(st *opTrace) error {
	if st == nil || !st.sampled {
		return n.syncStore()
	}
	t0 := time.Now()
	err := n.syncStore()
	st.disk += int64(time.Since(t0))
	return err
}
