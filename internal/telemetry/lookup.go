package telemetry

// Fixed bucket layouts shared by the simulator and the live p2p stack,
// so their distributions diff directly against each other and against
// the paper's figures.
var (
	// HopBuckets covers lookup path lengths: fine-grained through the
	// O(d) range the paper reports (d=8 gives ~7-hop averages), coarser
	// for stale-state detours.
	HopBuckets = []int64{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64}
	// LatencyBucketsUS covers per-contact dial+exchange latencies in
	// microseconds, from in-memory fabric round trips to multi-second
	// WAN timeouts.
	LatencyBucketsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 500000, 1000000, 2500000}
	// FanoutBuckets covers replication fan-out sizes (at most 4
	// distinct leaf-set neighbors besides the owner).
	FanoutBuckets = []int64{0, 1, 2, 3, 4}
	// RedirectBuckets covers store redirect-chain depths (the put path
	// follows at most 3 redirects).
	RedirectBuckets = []int64{0, 1, 2, 3}
	// CodecLatencyBucketsNS covers wire codec encode/decode times in
	// nanoseconds: sub-microsecond for routing-step frames, up to tens
	// of microseconds for chunk-sized values.
	CodecLatencyBucketsNS = []int64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000, 1000000}
	// WALBatchBuckets covers group-commit batch sizes: how many records
	// one durable-store fsync made durable, from the uncontended single
	// write to bursts of concurrent acknowledgements.
	WALBatchBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128}
)

// LookupStats is the allocation-free instrument bundle for a lookup
// hot path: per-phase hop counters indexed by the overlay's small
// phase enum, a hop-count histogram, and timeout/failure counters.
// Every record operation is a single atomic update, so an instrumented
// simulator lookup stays within its ≤1 alloc/op budget.
type LookupStats struct {
	Lookups  *Counter
	Timeouts *Counter
	Failed   *Counter
	Hops     *Histogram
	phases   []*Counter
	overflow *Counter // hops whose phase index is outside the declared set
}

// NewLookupStats registers the bundle in reg under the given metric
// namespace. phases maps the overlay's integer phase values (used as
// indexes) to their label values.
func NewLookupStats(reg *Registry, phases []string) *LookupStats {
	ls := &LookupStats{
		Lookups:  reg.Counter("lookups_total", "Lookups driven by this network."),
		Timeouts: reg.Counter("lookup_timeouts_total", "Departed/unreachable candidates contacted during lookups, the paper's timeout metric."),
		Failed:   reg.Counter("lookup_failures_total", "Lookups that terminated at a node other than the responsible one."),
		Hops:     reg.Histogram("lookup_hop_count", "Per-lookup path length in hops.", HopBuckets),
	}
	for _, p := range phases {
		ls.phases = append(ls.phases, reg.Counter("lookup_hops_total", "Lookup hops by routing phase (the paper's Figure 7 breakdown).", L("phase", p)))
	}
	ls.overflow = reg.Counter("lookup_hops_total", "Lookup hops by routing phase (the paper's Figure 7 breakdown).", L("phase", "other"))
	return ls
}

// HopPhase counts one hop for the phase with the given index.
func (ls *LookupStats) HopPhase(i int) {
	if i >= 0 && i < len(ls.phases) {
		ls.phases[i].Inc()
		return
	}
	ls.overflow.Inc()
}
