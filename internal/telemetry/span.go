// Distributed-tracing span records and the reconstruction logic that
// turns per-node span buffers into causal trees with end-to-end latency
// attribution.
//
// A span is one timed scope on one node: the client-side root of an
// operation ("client"), one outbound wire exchange ("call"), or the
// server-side handling of one admitted request ("server"). Spans are
// immutable once published; the buffer stores pointers in a lock-free
// ring so recording is one atomic store and never blocks or allocates
// beyond the span itself. Correlation is by a 128-bit trace ID carried
// in the wire envelope; parenthood is by span ID: a call span's request
// carries the call's own ID as the server's parent, so a collector that
// merges every node's buffer can reattach each server span under the
// exact exchange that caused it without any clock agreement between
// nodes.
//
// Attribution exploits the containment structure: a call span's
// duration minus its server span's duration is time spent on the wire
// (plus codec work); a server span splits into admission-queue wait,
// fsync time, and service proper; whatever the root's duration does not
// delegate to calls is client-local compute. All deltas are computed
// within a single node's clock, so the decomposition needs no
// cross-node clock sync and telescopes back to the root duration.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span kinds.
const (
	SpanClient = "client" // root of one client operation (Get/Put/Lookup)
	SpanCall   = "call"   // one outbound wire exchange, recorded at the caller
	SpanServer = "server" // server-side handling of one admitted request
)

// Span is one recorded tracing scope. All fields are set before the
// span is published to a SpanBuffer and never mutated afterwards.
type Span struct {
	TraceHi uint64 `json:"traceHi"`
	TraceLo uint64 `json:"traceLo"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`           // operation: get/put/lookup or wire op
	Node    string `json:"node,omitempty"` // address of the recording node
	Peer    string `json:"peer,omitempty"` // call spans: the dialed address
	Key     string `json:"key,omitempty"`

	Start    int64 `json:"startNs"`           // local-clock unix nanos
	Duration int64 `json:"durationNs"`        // total scope duration
	Queue    int64 `json:"queueNs,omitempty"` // server: admission-queue wait
	Disk     int64 `json:"diskNs,omitempty"`  // fsync time inside the scope
	Calls    int   `json:"calls,omitempty"`   // direct child call spans issued

	Annotations []string `json:"annotations,omitempty"` // shed, timeout, retry, ...
	Err         string   `json:"err,omitempty"`
}

// TraceID renders the span's 128-bit trace ID as 32 hex characters.
func (s *Span) TraceID() string { return FormatTraceID(s.TraceHi, s.TraceLo) }

// FormatTraceID renders a 128-bit trace ID as 32 hex characters.
func FormatTraceID(hi, lo uint64) string { return fmt.Sprintf("%016x%016x", hi, lo) }

// SpanBuffer is a bounded lock-free ring of completed spans. Add is one
// atomic increment plus one atomic pointer store; when the ring wraps,
// the oldest span is overwritten (collectors size the ring to the
// workload they intend to keep). A nil buffer discards everything.
type SpanBuffer struct {
	slots []atomic.Pointer[Span]
	next  atomic.Uint64
}

// NewSpanBuffer returns a ring holding up to size spans (minimum 1).
func NewSpanBuffer(size int) *SpanBuffer {
	if size < 1 {
		size = 1
	}
	return &SpanBuffer{slots: make([]atomic.Pointer[Span], size)}
}

// Add publishes one completed span. Safe for concurrent use; nil-safe.
func (b *SpanBuffer) Add(s *Span) {
	if b == nil || s == nil {
		return
	}
	i := b.next.Add(1) - 1
	b.slots[i%uint64(len(b.slots))].Store(s)
}

// Len reports how many spans were ever added (not how many survive).
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	return int(b.next.Load())
}

// Snapshot returns the retained spans, oldest first by publish order.
func (b *SpanBuffer) Snapshot() []*Span {
	if b == nil {
		return nil
	}
	n := b.next.Load()
	size := uint64(len(b.slots))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]*Span, 0, n-start)
	for i := start; i < n; i++ {
		if s := b.slots[i%size].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// SpanNode is one span with its reattached children.
type SpanNode struct {
	Span     *Span       `json:"span"`
	Children []*SpanNode `json:"children,omitempty"`
}

// SpanTree is every collected span of one trace, reattached by parent
// span ID. Detached holds nodes whose parent span was not collected
// (lost with a crashed node or evicted from a ring) — they are part of
// the trace but cannot be hung under the root.
type SpanTree struct {
	TraceID  string      `json:"traceId"`
	Root     *SpanNode   `json:"root,omitempty"`
	Detached []*SpanNode `json:"detached,omitempty"`
	Spans    int         `json:"spans"`
}

// BuildTrees groups spans by trace ID and reconstructs each trace's
// causal tree. Input order is irrelevant; output is sorted by trace ID
// and children by start time, so reconstruction is deterministic for a
// given span set. Duplicate span IDs keep the first occurrence.
func BuildTrees(spans []*Span) []*SpanTree {
	type key struct{ hi, lo uint64 }
	groups := make(map[key][]*Span)
	for _, s := range spans {
		k := key{s.TraceHi, s.TraceLo}
		groups[k] = append(groups[k], s)
	}
	trees := make([]*SpanTree, 0, len(groups))
	for k, group := range groups {
		byID := make(map[uint64]*SpanNode, len(group))
		for _, s := range group {
			if _, dup := byID[s.ID]; !dup {
				byID[s.ID] = &SpanNode{Span: s}
			}
		}
		t := &SpanTree{TraceID: FormatTraceID(k.hi, k.lo), Spans: len(byID)}
		for _, n := range byID {
			if n.Span.Parent == 0 {
				if t.Root == nil || n.Span.Start < t.Root.Span.Start {
					t.Root = n
				}
				continue
			}
			if p, ok := byID[n.Span.Parent]; ok && p != n {
				p.Children = append(p.Children, n)
			} else {
				t.Detached = append(t.Detached, n)
			}
		}
		for _, n := range byID {
			sortNodes(n.Children)
		}
		sortNodes(t.Detached)
		trees = append(trees, t)
	}
	sort.Slice(trees, func(i, j int) bool { return trees[i].TraceID < trees[j].TraceID })
	return trees
}

func sortNodes(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Span.Start != ns[j].Span.Start {
			return ns[i].Span.Start < ns[j].Span.Start
		}
		return ns[i].Span.ID < ns[j].Span.ID
	})
}

// Attribution is one request's end-to-end latency decomposition. The
// five phases sum (up to clamping of negative deltas) to the root
// span's duration.
type Attribution struct {
	Local   time.Duration `json:"local"`   // client-side compute between calls
	Network time.Duration `json:"network"` // wire + codec: call minus server time
	Queue   time.Duration `json:"queue"`   // admission-queue waits
	Service time.Duration `json:"service"` // server-side handling proper
	Disk    time.Duration `json:"disk"`    // fsync on ack paths
}

// Total sums the phases.
func (a Attribution) Total() time.Duration {
	return a.Local + a.Network + a.Queue + a.Service + a.Disk
}

func (a Attribution) String() string {
	return fmt.Sprintf("local=%v network=%v queue=%v service=%v disk=%v",
		a.Local, a.Network, a.Queue, a.Service, a.Disk)
}

// Attribution decomposes the tree's root duration into per-phase time.
// A call span without a collected server child (the peer was unsampled,
// crashed, or the request never arrived) charges its whole duration to
// network — the honest reading, since nothing finer was observed.
func (t *SpanTree) Attribution() Attribution {
	var a Attribution
	if t.Root == nil {
		return a
	}
	attributeScope(t.Root, &a)
	return a
}

// attributeScope handles a client or server node: delegate each child
// call's duration, keep the remainder as local/service time.
func attributeScope(n *SpanNode, a *Attribution) {
	var delegated int64
	for _, c := range n.Children {
		if c.Span.Kind != SpanCall {
			continue
		}
		delegated += c.Span.Duration
		attributeCall(c, a)
	}
	rest := n.Span.Duration - delegated
	if n.Span.Kind == SpanServer {
		rest -= n.Span.Queue + n.Span.Disk
		a.Queue += time.Duration(n.Span.Queue)
		a.Disk += time.Duration(n.Span.Disk)
	}
	if rest < 0 {
		rest = 0
	}
	if n.Span.Kind == SpanServer {
		a.Service += time.Duration(rest)
	} else {
		a.Local += time.Duration(rest)
	}
}

func attributeCall(n *SpanNode, a *Attribution) {
	var srv *SpanNode
	for _, c := range n.Children {
		if c.Span.Kind == SpanServer {
			srv = c
			break
		}
	}
	if srv == nil {
		a.Network += time.Duration(n.Span.Duration)
		return
	}
	net := n.Span.Duration - srv.Span.Duration
	if net < 0 {
		net = 0
	}
	a.Network += time.Duration(net)
	attributeScope(srv, a)
}

// Check verifies the trace's completeness invariant: a single rooted
// tree where every scope's recorded call count matches its reattached
// call children. allowDetached tolerates spans orphaned by crashed or
// killed nodes (whose own buffers died with them). It returns a
// human-readable violation list, empty when the trace is complete.
func (t *SpanTree) Check(allowDetached bool) []string {
	var v []string
	if t.Root == nil {
		if !allowDetached {
			v = append(v, fmt.Sprintf("trace %s: no root span among %d spans", t.TraceID, t.Spans))
		}
		return v
	}
	if len(t.Detached) > 0 && !allowDetached {
		v = append(v, fmt.Sprintf("trace %s: %d detached spans", t.TraceID, len(t.Detached)))
	}
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		calls := 0
		for _, c := range n.Children {
			switch c.Span.Kind {
			case SpanCall:
				calls++
			case SpanServer:
				if n.Span.Kind != SpanCall {
					v = append(v, fmt.Sprintf("trace %s: server span %x under %s span %x",
						t.TraceID, c.Span.ID, n.Span.Kind, n.Span.ID))
				}
			}
			walk(c)
		}
		switch n.Span.Kind {
		case SpanClient, SpanServer:
			if calls != n.Span.Calls {
				v = append(v, fmt.Sprintf("trace %s: %s span %x issued %d calls, %d call spans collected",
					t.TraceID, n.Span.Kind, n.Span.ID, n.Span.Calls, calls))
			}
		case SpanCall:
			if len(n.Children) > 1 {
				v = append(v, fmt.Sprintf("trace %s: call span %x has %d children, want <=1 server span",
					t.TraceID, n.Span.ID, len(n.Children)))
			}
		}
	}
	walk(t.Root)
	return v
}

// Format renders the tree as an indented text view with per-span phase
// detail and annotations (a step call span's routing phase among them).
func (t *SpanTree) Format(w io.Writer) {
	fmt.Fprintf(w, "trace %s spans=%d", t.TraceID, t.Spans)
	if t.Root != nil {
		attr := t.Attribution()
		fmt.Fprintf(w, " root=%s dur=%v %s", t.Root.Span.Name,
			time.Duration(t.Root.Span.Duration), attr)
	}
	fmt.Fprintln(w)
	if t.Root != nil {
		formatNode(w, t.Root, 1)
	}
	for _, n := range t.Detached {
		fmt.Fprint(w, "  (detached) ")
		formatNode(w, n, 0)
	}
}

func formatNode(w io.Writer, n *SpanNode, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	s := n.Span
	fmt.Fprintf(w, "%s %s", s.Kind, s.Name)
	if s.Key != "" {
		fmt.Fprintf(w, " key=%q", s.Key)
	}
	if s.Node != "" {
		fmt.Fprintf(w, " node=%s", s.Node)
	}
	if s.Peer != "" {
		fmt.Fprintf(w, " peer=%s", s.Peer)
	}
	fmt.Fprintf(w, " %v", time.Duration(s.Duration))
	if s.Queue > 0 {
		fmt.Fprintf(w, " queue=%v", time.Duration(s.Queue))
	}
	if s.Disk > 0 {
		fmt.Fprintf(w, " disk=%v", time.Duration(s.Disk))
	}
	for _, an := range s.Annotations {
		fmt.Fprintf(w, " [%s]", an)
	}
	if s.Err != "" {
		fmt.Fprintf(w, " err=%q", s.Err)
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		formatNode(w, c, depth+1)
	}
}
