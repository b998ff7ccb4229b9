// Package loadgen is the one client driver of the repo's harnesses.
// Exec issues every operation — Put, Get, Lookup, whole-blob writes and
// paced viewer sessions — and records each in a History, which Check
// holds to the consistency model of DESIGN.md. Harnesses hand Exec a
// plan: one list of steps per client.
//
// On top of it, Run drives a seeded workload against a live cluster and
// reports what the paper measures under load: throughput, latency
// quantiles, error counts, and the per-node query-load distribution of
// Figures 8–10. The closed-loop driver keeps a fixed number of
// operations outstanding; the open-loop driver dispatches at a fixed
// arrival rate regardless of completions, so a saturated overlay shows
// up as latency growth rather than throughput collapse. The workload is
// drawn from the seed before any traffic flows, so on a deterministic
// fabric (p2p/memnet) the outcomes and the query-load table repeat
// exactly; only wall-clock fields vary.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/internal/telemetry"
	"cycloid/p2p"
)

// Op is one operation kind: a workload operation, or a History mark.
type Op int

// Operation kinds, then mark kinds.
const (
	OpPut Op = iota
	OpGet
	OpLookup
	OpBlobPut  // write a whole blob
	OpBlobGet  // play a blob through, as a viewer session
	OpBlobRead // read a whole blob at once (blob.Store.Get)
	OpBarrier
	OpChurn
	OpForfeit
)

func (o Op) String() string {
	return [...]string{"put", "get", "lookup", "blob-put", "blob-get", "blob-read", "barrier", "churn", "forfeit"}[o]
}

// Mix weights the operation kinds; zero-value weights drop the kind.
// The canonical query-balance workload is lookup-only: Mix{Lookup: 1}.
type Mix struct {
	Put    int
	Get    int
	Lookup int
}

func (m Mix) total() int { return m.Put + m.Get + m.Lookup }

// Config parameterizes one load run.
type Config struct {
	// Nodes is the live cluster to drive. Every node must carry its own
	// private telemetry registry (the default) — the per-node query-load
	// table is read from those registries.
	Nodes []*p2p.Node
	// Mix weights Put/Get/Lookup. Default lookup-only.
	Mix Mix
	// Keys is the distinct-key population. Default 64.
	Keys int
	// Zipf is the key-popularity skew s (> 1 per math/rand's Zipf);
	// 0 selects uniform popularity. Values in (0,1] are invalid.
	Zipf float64
	// Seed drives all workload randomness. Same seed, same fabric ⇒
	// same operations, same outcomes.
	Seed int64
	// Ops is the measured operation count. Default 1000.
	Ops int
	// Closed-loop: Concurrency is the fixed number of outstanding
	// operations. Default 8. Ignored when Rate > 0.
	Concurrency int
	// Open-loop: Rate is the arrival rate in operations per second.
	// 0 selects the closed-loop driver.
	Rate float64
	// KeyList, when non-empty, replaces the generated key population:
	// the workload draws from exactly these keys and Keys is ignored.
	// Popularity (uniform or Zipf) ranks the list in order, so with
	// Zipf skew KeyList[0] is the hottest key. Harnesses use this to
	// aim traffic at keys with known owners — e.g. a capped victim
	// node in an overload run.
	KeyList []string
	// OpTimeout, when > 0, bounds every operation with a context
	// deadline. The deadline propagates over the wire, so servers drop
	// queued work whose caller has already given up; an operation that
	// exceeds it counts as an error in the report.
	OpTimeout time.Duration
	// Streaming selects the streaming mix: viewer
	// sessions over chunked blobs instead of single-key operations.
	// Mix, Keys, KeyList and Ops are ignored when it is set; Zipf skews
	// blob popularity and Concurrency is the concurrent viewer count.
	Streaming *Streaming
}

func (c *Config) defaults() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("loadgen: no nodes")
	}
	if c.Mix.total() == 0 {
		c.Mix = Mix{Lookup: 1}
	}
	if len(c.KeyList) > 0 {
		c.Keys = len(c.KeyList)
	} else if c.Keys == 0 {
		c.Keys = 64
	}
	if c.Ops == 0 {
		c.Ops = 1000
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.Zipf != 0 && c.Zipf <= 1 {
		return fmt.Errorf("loadgen: zipf skew must be > 1 (or 0 for uniform), got %v", c.Zipf)
	}
	return nil
}

// NodeLoad is one node's share of the query load: the wire requests it
// served during the measure window, by kind — the live analogue of the
// paper's "query load" per node.
type NodeLoad struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Steps   uint64 `json:"steps"`   // routing decisions served
	Fetches uint64 `json:"fetches"` // reads served
	Stores  uint64 `json:"stores"`  // writes served (incl. replicate)
	Total   uint64 `json:"total"`
}

// Balance summarizes the query-load distribution across nodes (the
// paper reports mean and deviation; CV = stddev/mean is the
// scale-free version).
type Balance struct {
	Min  uint64  `json:"min"`
	Max  uint64  `json:"max"`
	Mean float64 `json:"mean"`
	CV   float64 `json:"cv"`
}

// Exemplar ties one slow sampled operation to its distributed trace:
// the trace ID can be looked up in the cluster's span buffers (or
// /debug/spans) to see exactly where that outlier's latency went.
// Only operations that were trace-sampled carry an ID, so exemplars
// appear when the driven cluster has Config.TraceSample > 0 or the
// operation hit an anomaly that forced sampling.
type Exemplar struct {
	Op        string `json:"op"`
	Key       string `json:"key"`
	TraceID   string `json:"trace_id"`
	LatencyUS int64  `json:"latency_us"`
	Err       string `json:"err,omitempty"`
}

// OpStats is one operation kind's outcome counts and latency quantiles
// (microseconds, bucket-interpolated).
type OpStats struct {
	Ops    int   `json:"ops"`
	Errors int   `json:"errors"`
	P50    int64 `json:"p50_us"`
	P95    int64 `json:"p95_us"`
	P99    int64 `json:"p99_us"`
}

// Report is the outcome of one load run. On a deterministic fabric
// with a fixed seed, everything except Duration, Throughput and the
// latency quantiles is identical across runs.
type Report struct {
	Mode        string             `json:"mode"` // "closed" or "open"
	Nodes       int                `json:"nodes"`
	Ops         int                `json:"ops"`
	Errors      int                `json:"errors"`
	Duration    time.Duration      `json:"duration_ns"`
	Throughput  float64            `json:"throughput_ops_per_s"`
	P50         int64              `json:"p50_us"`
	P95         int64              `json:"p95_us"`
	P99         int64              `json:"p99_us"`
	PerOp       map[string]OpStats `json:"per_op"`
	Load        []NodeLoad         `json:"node_load"`
	LoadBalance Balance            `json:"load_balance"`
	// Exemplars are the slowest trace-sampled operations of the run
	// (latency outliers with a pullable trace ID), slowest first.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
	// Streaming carries the streaming mix's SLO section (rebuffer
	// accounting, TTFB quantiles); nil for the Put/Get/Lookup mixes.
	Streaming *StreamStats `json:"streaming,omitempty"`
}

// maxExemplars bounds how many outlier traces a report retains.
const maxExemplars = 8

// Run executes the configured workload and returns its report.
func Run(cfg Config) (*Report, error) { return Start(new(History), cfg)() }

// Start begins the configured workload, recording every operation in
// h, and returns a function that waits for its report. The keys are
// first written once each (round-robin across nodes, outside the
// measure window) so reads always have something to hit; the per-node
// load table covers only the measured traffic.
func Start(h *History, cfg Config) (wait func() (*Report, error)) {
	var rep *Report
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if cfg.Streaming != nil {
			rep, err = runStreaming(h, cfg)
		} else {
			rep, err = run(h, cfg)
		}
	}()
	return func() (*Report, error) {
		<-done
		return rep, err
	}
}

func run(h *History, cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	warmup, steps := plan(cfg)
	unbounded := &Exec{History: h}
	for _, s := range warmup {
		if rec := unbounded.Do(0, s); rec.Err != nil {
			return nil, fmt.Errorf("loadgen: warmup put %q: %w", s.Key, rec.Err)
		}
	}

	x := &Exec{History: h, Timeout: cfg.OpTimeout}
	t := newTally()
	before := snapshotLoads(cfg.Nodes)
	began := time.Now()
	if cfg.Rate > 0 {
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		var wg sync.WaitGroup
		for i, s := range steps {
			// Operation i is due at began + i/rate regardless of earlier
			// completions: a fixed arrival rate, as from independent clients.
			if d := time.Until(began.Add(time.Duration(i) * interval)); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t.add(x.Do(i, s))
			}()
		}
		wg.Wait()
	} else {
		closedLoop(cfg.Concurrency, len(steps), func(client, i int) { t.add(x.Do(client, steps[i])) })
	}
	took := time.Since(began)
	after := snapshotLoads(cfg.Nodes)

	rep := &Report{Mode: "closed", Nodes: len(cfg.Nodes), Duration: took, PerOp: map[string]OpStats{}}
	if cfg.Rate > 0 {
		rep.Mode = "open"
	}
	for _, op := range []Op{OpPut, OpGet, OpLookup} {
		if st := t.stats[op]; st.Ops > 0 {
			st.P50, st.P95, st.P99 = t.lat[op].Quantile(0.50), t.lat[op].Quantile(0.95), t.lat[op].Quantile(0.99)
			rep.PerOp[op.String()] = st
			rep.Ops += st.Ops
			rep.Errors += st.Errors
		}
	}
	rep.P50, rep.P95, rep.P99 = t.all.Quantile(0.50), t.all.Quantile(0.95), t.all.Quantile(0.99)
	rep.Throughput = float64(rep.Ops) / took.Seconds()
	for _, r := range t.slow {
		e := Exemplar{Op: r.Op.String(), Key: r.Key, TraceID: r.TraceID, LatencyUS: r.Latency.Microseconds()}
		if r.Err != nil {
			e.Err = r.Err.Error()
		}
		rep.Exemplars = append(rep.Exemplars, e)
	}
	fillLoad(rep, cfg.Nodes, before, after)
	return rep, nil
}

// tally folds a run's operations into its report as they finish:
// counts and latency histograms per kind, and the slowest trace-sampled
// operations. The records themselves stay in the history only.
type tally struct {
	all   *telemetry.Histogram
	lat   [OpLookup + 1]*telemetry.Histogram
	mu    sync.Mutex
	stats [OpLookup + 1]OpStats
	// slow holds the maxExemplars slowest trace-sampled operations,
	// slowest first. Puts carry no trace ID (PutContext reports no
	// Route), so exemplars cover Gets and Lookups — the
	// latency-sensitive reads.
	slow []Record
}

func newTally() *tally {
	reg := telemetry.NewRegistry("loadgen")
	t := &tally{all: reg.Histogram("op_latency_us", "All-op latency.", telemetry.LatencyBucketsUS)}
	for op := range t.lat {
		t.lat[op] = reg.Histogram(Op(op).String()+"_latency_us", "Per-op latency.", telemetry.LatencyBucketsUS)
	}
	return t
}

func (t *tally) add(r Record) {
	t.all.Observe(r.Latency.Microseconds())
	t.lat[r.Op].Observe(r.Latency.Microseconds())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats[r.Op].Ops++
	if r.Err != nil {
		t.stats[r.Op].Errors++
	}
	if r.TraceID != "" {
		i := sort.Search(len(t.slow), func(i int) bool { return t.slow[i].Latency < r.Latency })
		t.slow = slices.Insert(t.slow, i, r)
		t.slow = t.slow[:min(len(t.slow), maxExemplars)]
	}
}

// plan pregenerates the warmup writes and the measured steps from the
// seed, single-threaded — the only randomness in a run.
func plan(cfg Config) (warmup, steps []Step) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]string, cfg.Keys)
	for i := range keys {
		if len(cfg.KeyList) > 0 {
			keys[i] = cfg.KeyList[i]
		} else {
			keys[i] = fmt.Sprintf("load-%d-%d", cfg.Seed, i)
		}
		warmup = append(warmup, Step{Op: OpPut, Node: cfg.Nodes[i%len(cfg.Nodes)], Key: keys[i], Value: []byte(fmt.Sprintf("v%d", i))})
	}
	var zipf *rand.Zipf
	if cfg.Zipf > 1 {
		zipf = rand.NewZipf(rng, cfg.Zipf, 1, uint64(cfg.Keys-1))
	}
	pick := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(cfg.Keys)
	}
	tot := cfg.Mix.total()
	steps = make([]Step, cfg.Ops)
	for i := range steps {
		var op Op
		switch w := rng.Intn(tot); {
		case w < cfg.Mix.Put:
			op = OpPut
		case w < cfg.Mix.Put+cfg.Mix.Get:
			op = OpGet
		default:
			op = OpLookup
		}
		k := pick()
		steps[i] = Step{Op: op, Key: keys[k], Node: cfg.Nodes[rng.Intn(len(cfg.Nodes))]}
		if op == OpPut {
			// Every write's value is unique, so the checker can tell
			// which write a read saw.
			steps[i].Value = []byte(fmt.Sprintf("v%d-%d", k, i))
		}
	}
	return warmup, steps
}

// closedLoop keeps workers clients busy on items 0..n-1: each takes
// the next item as soon as it finishes one.
func closedLoop(workers, n int, do func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(w, i)
			}
		}()
	}
	wg.Wait()
}

// loadSnapshot is one node's served-request counters at an instant.
type loadSnapshot struct {
	steps, fetches, stores uint64
}

func snapshotLoads(nodes []*p2p.Node) []loadSnapshot {
	out := make([]loadSnapshot, len(nodes))
	for i, nd := range nodes {
		vals := nd.Telemetry().CounterValues()
		pre := "cycloid_requests_total"
		out[i] = loadSnapshot{
			steps:   vals[pre+`{op="step"}`],
			fetches: vals[pre+`{op="fetch"}`],
			stores:  vals[pre+`{op="store"}`] + vals[pre+`{op="replicate"}`],
		}
	}
	return out
}

// fillLoad computes the per-node query-load table and its balance
// summary from the before/after counter snapshots — the Figures 8–10
// section, shared by every mix.
func fillLoad(rep *Report, nodes []*p2p.Node, before, after []loadSnapshot) {
	rep.Load = make([]NodeLoad, len(nodes))
	rep.LoadBalance = Balance{Min: ^uint64(0)}
	var sum, sumSq float64
	for i, nd := range nodes {
		l := NodeLoad{
			Name:    nd.Addr(),
			ID:      nd.ID().String(),
			Steps:   after[i].steps - before[i].steps,
			Fetches: after[i].fetches - before[i].fetches,
			Stores:  after[i].stores - before[i].stores,
		}
		l.Total = l.Steps + l.Fetches + l.Stores
		rep.Load[i] = l
		if l.Total < rep.LoadBalance.Min {
			rep.LoadBalance.Min = l.Total
		}
		if l.Total > rep.LoadBalance.Max {
			rep.LoadBalance.Max = l.Total
		}
		sum += float64(l.Total)
		sumSq += float64(l.Total) * float64(l.Total)
	}
	n := float64(len(nodes))
	rep.LoadBalance.Mean = sum / n
	if rep.LoadBalance.Mean > 0 {
		variance := sumSq/n - rep.LoadBalance.Mean*rep.LoadBalance.Mean
		if variance < 0 {
			variance = 0
		}
		rep.LoadBalance.CV = math.Sqrt(variance) / rep.LoadBalance.Mean
	}
	sort.Slice(rep.Load, func(i, j int) bool { return rep.Load[i].Total > rep.Load[j].Total })
}
