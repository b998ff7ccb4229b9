package main

import (
	"cmp"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/internal/telemetry"
	"cycloid/p2p"
	"cycloid/p2p/store"
)

// The traced pass records spans from the benchmark's own files, at the
// three seams the public API lets it interpose: the client call, a
// p2p.Transport wrapper (dials and connection writes; reads are waits
// and are not timed) and a store.Store wrapper. One client runs at a
// time, so every wire and store span that starts inside an operation's
// interval was caused by that operation: spans nest by time containment
// and need no identifiers.

type spanKind uint8

const (
	spanOp spanKind = iota
	spanDial
	spanWrite
	spanStoreGet
	spanStorePut
	spanStoreDelete
	spanStoreSync
)

var spanNames = [...]string{"op", "wire.dial", "wire.write", "store.get", "store.put", "store.delete", "store.sync"}

func (k spanKind) isStore() bool { return k >= spanStoreGet }

type span struct {
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
	bytes      int
}

// tracer collects spans in memory. It records nothing until enabled, so
// boot and preload traffic stay out.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(kind spanKind, start time.Time, bytes int) {
	if !t.enabled.Load() {
		return
	}
	end := time.Since(t.epoch)
	s := span{kind: kind, start: int64(start.Sub(t.epoch)), end: int64(end), bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// tracedTransport times dials and wraps every connection, dialed or
// accepted, so both requests and replies are counted.
type tracedTransport struct {
	base p2p.Transport
	tr   *tracer
}

func (t *tracedTransport) Listen(addr string) (net.Listener, error) {
	ln, err := t.base.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, tr: t.tr}, nil
}

func (t *tracedTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	start := time.Now()
	c, err := t.base.Dial(addr, timeout)
	t.tr.record(spanDial, start, 0)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: t.tr}, nil
}

type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr}, nil
}

type tracedConn struct {
	net.Conn
	tr *tracer
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.tr.record(spanWrite, start, n)
	return n, err
}

// tracedStore times the calls that read or change data or reach the
// disk; Len, Range, SetPromoted and Close pass through.
type tracedStore struct {
	store.Store
	tr *tracer
}

func (s *tracedStore) Get(key string) (store.Item, bool) {
	start := time.Now()
	it, ok := s.Store.Get(key)
	s.tr.record(spanStoreGet, start, len(it.Val))
	return it, ok
}

func (s *tracedStore) Put(key string, it store.Item) {
	start := time.Now()
	s.Store.Put(key, it)
	s.tr.record(spanStorePut, start, len(it.Val))
}

func (s *tracedStore) Delete(key string) {
	start := time.Now()
	s.Store.Delete(key)
	s.tr.record(spanStoreDelete, start, 0)
}

func (s *tracedStore) Sync() error {
	start := time.Now()
	err := s.Store.Sync()
	s.tr.record(spanStoreSync, start, 0)
	return err
}

// interval is a half-open time range in ns.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, which it
// sorts in place.
func unionLen(ivs []interval) int64 {
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var total, hi int64
	for i, iv := range ivs {
		if i == 0 || iv.lo > hi {
			total += iv.hi - iv.lo
			hi = iv.hi
		} else if iv.hi > hi {
			total += iv.hi - hi
			hi = iv.hi
		}
	}
	return total
}

// serialPass runs the two serial windows — one client, a tenth of the
// timed size — that the traced pass and its untraced baseline share.
func serialPass(b *bench, rc runConfig, label string, out *outcome) []windowResult {
	sched := newSchedule(rc.w, rc.seed, 2, max(2, rc.windowOps/10))
	var results []windowResult
	for _, entries := range sched.windows {
		res := b.runWindow(entries, 1)
		if len(res.failed) > 0 {
			out.problem("%s: %d operations failed", label, len(res.failed))
		}
		results = append(results, res)
	}
	return results
}

// opsPerSecond is the rate over a set of windows.
func opsPerSecond(results []windowResult) float64 {
	var ops, durS float64
	for _, res := range results {
		ops += float64(len(res.lat))
		durS += res.durS
	}
	return ratio(ops, durS)
}

// tracedPass boots a separate overlay behind the wrappers, runs the
// serial windows on it and fills in the metrics that need spans.
// untracedOpsS is the rate the same windows reached on the plain overlay.
func tracedPass(rc runConfig, untracedOpsS float64, out *outcome) error {
	tr := newTracer()
	fl, err := bootFleet(rc.w, filepath.Join(rc.tmpRoot, "traced"), tr)
	if err != nil {
		return err
	}
	defer fl.close()
	warm := newSchedule(rc.w, rc.seed, 1, rc.windowOps)
	b := newBench(rc.w, warm.items, rc.seed, fl)
	if err := b.prepare(); err != nil {
		return err
	}
	// A full-size window first, as in the timed run: without it the
	// serial windows would mostly measure pooled connections being
	// dialed for the first time.
	if res := b.runWindow(warm.windows[0], clients); len(res.failed) > 0 {
		out.problem("traced pass warm-up: %d operations failed", len(res.failed))
	}

	tr.enabled.Store(true)
	hopsBefore, _ := fl.counters()
	results := serialPass(b, rc, "traced pass", out)
	hopsAfter, _ := fl.counters()
	tr.enabled.Store(false)

	var ops []span
	for _, res := range results {
		at := int64(res.t0.Sub(tr.epoch))
		for i, d := range res.lat {
			ops = append(ops, span{kind: spanOp, start: at + res.startNS[i], end: at + res.startNS[i] + d})
		}
	}
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })

	l := out.layer
	parents, opNS := seamMetrics(ops, spans, l)
	l["trace.overhead_ratio"] = ratio(opsPerSecond(results), untracedOpsS)
	hops := sumFamily(hopsAfter, hopsFamily) - sumFamily(hopsBefore, hopsFamily)
	l["p2p.us_per_hop"] = ratio(float64(opNS)/1e3, float64(hops))

	// Cross-check from the program's own spans.
	var all []*telemetry.Span
	since := results[0].t0.UnixNano()
	for _, nd := range fl.nodes {
		for _, s := range nd.Spans().Snapshot() {
			if s.Start >= since {
				all = append(all, s)
			}
		}
	}
	attributeSpans(all, float64(opNS), float64(len(ops)), l)

	return writeTrace(rc, ops, spans, parents)
}

// seamMetrics assigns every wire and store span (sorted by start) to the
// operation span it starts inside, and reports what the three seams saw
// per operation. It returns each span's operation by index, -1 for a
// span between operations, and the summed operation time.
func seamMetrics(ops, spans []span, l metrics) (parents []int, opNS int64) {
	var (
		count, dur      [len(spanNames)]float64
		wireBytes       float64
		storeNS, bothNS int64
		next            int
	)
	parents = make([]int, len(spans))
	for oi, op := range ops {
		var storeIvs, allIvs []interval
		for ; next < len(spans) && spans[next].start < op.start; next++ {
			parents[next] = -1
		}
		for ; next < len(spans) && spans[next].start < op.end; next++ {
			s := spans[next]
			parents[next] = oi
			count[s.kind]++
			dur[s.kind] += float64(s.end - s.start)
			if s.kind == spanWrite {
				wireBytes += float64(s.bytes)
			}
			iv := interval{s.start, min(s.end, op.end)}
			allIvs = append(allIvs, iv)
			if s.kind.isStore() {
				storeIvs = append(storeIvs, iv)
			}
		}
		opNS += op.end - op.start
		storeNS += unionLen(storeIvs)
		bothNS += unionLen(allIvs)
	}
	for ; next < len(spans); next++ {
		parents[next] = -1
	}

	nOps := float64(len(ops))
	perOpUS := func(ns int64) float64 { return float64(ns) / 1e3 / nOps }
	meanUS := func(k spanKind) float64 { return ratio(dur[k], count[k]) / 1e3 }
	l["trace.op_us"] = perOpUS(opNS)
	// The three telescope by construction: store time first, wire time
	// not already under a store span next, the rest is p2p's own.
	l["store.us_per_op"] = perOpUS(storeNS)
	l["wire.write_us_per_op"] = perOpUS(bothNS - storeNS)
	l["p2p.self_us_per_op"] = perOpUS(opNS - bothNS)
	l["store.put_us"] = meanUS(spanStorePut)
	l["store.get_us"] = meanUS(spanStoreGet)
	l["store.sync_us"] = meanUS(spanStoreSync)
	l["store.calls_per_op"] = (count[spanStoreGet] + count[spanStorePut] + count[spanStoreDelete] + count[spanStoreSync]) / nOps
	l["wire.bytes_per_op"] = wireBytes / nOps
	l["wire.writes_per_op"] = count[spanWrite] / nOps
	l["wire.dials_per_op"] = count[spanDial] / nOps
	return parents, opNS
}

// attributeSpans rebuilds the program's span trees and reports their
// queue/service/network/disk/local split per client operation. A blob
// operation runs up to blobWindow key/value operations at once, each
// its own tree, so the summed phases are scaled by covered wall time
// over summed tree time; for the other workloads that factor is 1. The
// phases then sum to the wall time the program's spans cover, and
// trace.span_coverage is that as a share of the client's op time opNS:
// what is missing is work above the key/value layer (blob hashing and
// assembly) and the harness's own call overhead.
func attributeSpans(all []*telemetry.Span, opNS, nOps float64, l metrics) {
	var a telemetry.Attribution
	var roots []interval
	var rootNS int64
	for _, t := range telemetry.BuildTrees(all) {
		if t.Root == nil {
			continue
		}
		ta := t.Attribution()
		a.Local += ta.Local
		a.Network += ta.Network
		a.Queue += ta.Queue
		a.Service += ta.Service
		a.Disk += ta.Disk
		s := t.Root.Span
		roots = append(roots, interval{s.Start, s.Start + s.Duration})
		rootNS += s.Duration
	}
	covered := float64(unionLen(roots))
	overlap := ratio(covered, float64(rootNS))
	l["trace.span_coverage"] = ratio(covered, opNS)
	perOpUS := func(d time.Duration) float64 { return float64(d) * overlap / 1e3 / nOps }
	l["p2p.trace_local_us"] = perOpUS(a.Local)
	l["p2p.trace_network_us"] = perOpUS(a.Network)
	l["p2p.trace_queue_us"] = perOpUS(a.Queue)
	l["p2p.trace_service_us"] = perOpUS(a.Service)
	l["p2p.trace_disk_us"] = perOpUS(a.Disk)
}

// writeTrace writes the harness's spans to benchmark/out. Each span
// names the operation span that caused it by index, -1 for none.
func writeTrace(rc runConfig, ops, spans []span, parents []int) error {
	type jsonSpan struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Parent  int    `json:"parent"`
		Bytes   int    `json:"bytes,omitempty"`
	}
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Ops      []jsonSpan `json:"ops"`
		Spans    []jsonSpan `json:"spans"`
	}{Workload: rc.w.name, Seed: rc.seed}
	for _, s := range ops {
		doc.Ops = append(doc.Ops, jsonSpan{Name: spanNames[s.kind], StartNS: s.start, EndNS: s.end, Parent: -1})
	}
	for i, s := range spans {
		doc.Spans = append(doc.Spans, jsonSpan{Name: spanNames[s.kind], StartNS: s.start, EndNS: s.end, Parent: parents[i], Bytes: s.bytes})
	}
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rc.w.name+".trace.json"), data, 0o644)
}
