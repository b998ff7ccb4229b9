package main

// metricDef declares one metric. BENCHMARK.json repeats these tables;
// a test keeps the two identical.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end to end only: share of the median it may worsen
}

// endToEnd is what a user of the overlay sees, under the same names on
// every workload. Timings are normalised by host speed and are medians
// over the measured windows; counts are exact totals over them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.15},
	{"p50_us", "us", "lower", 0.15},
	{"p90_us", "us", "lower", 0.15},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"hops_per_op", "count", "lower", 0.02},
	{"msgs_per_op", "count", "lower", 0.02},
	{"ok_ratio", "ratio", "higher", 0.001},
	{"slo_ok_ratio", "ratio", "higher", 0.002},
	{"peak_rss_mib", "MiB", "lower", 0.10},
}

// perLayer explains the end-to-end numbers, layer by layer (layer =
// module name). A metric that does not apply to a workload reads 0
// there. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// The client's raw view and how quiet the host was.
	{name: "client.ops_s_raw", unit: "1/s", better: "higher"},
	{name: "client.p50_us_raw", unit: "us", better: "lower"},
	{name: "client.p90_us_raw", unit: "us", better: "lower"},
	{name: "client.cpu_us_per_op_raw", unit: "us", better: "lower"},
	{name: "client.setup_s_raw", unit: "s", better: "lower"},
	{name: "client.p99_us", unit: "us", better: "lower"},
	{name: "client.max_us", unit: "us", better: "lower"},
	{name: "client.get_p50_us", unit: "us", better: "lower"},
	{name: "client.put_p50_us", unit: "us", better: "lower"},
	{name: "client.window_cv", unit: "ratio", better: "lower"},
	{name: "host.cal_ms", unit: "ms", better: "lower"},
	{name: "host.cal_spread", unit: "ratio", better: "lower"},
	{name: "host.cal_p_ms", unit: "ms", better: "lower"},
	{name: "host.cal_d_ms", unit: "ms", better: "lower"},

	// Routing and messages, from Node.Telemetry() deltas in the timed run.
	{name: "p2p.hops_ascend_per_op", unit: "count", better: "lower"},
	{name: "p2p.hops_descend_per_op", unit: "count", better: "lower"},
	{name: "p2p.hops_traverse_per_op", unit: "count", better: "lower"},
	{name: "p2p.step_msgs_per_op", unit: "count", better: "lower"},
	{name: "p2p.fetch_msgs_per_op", unit: "count", better: "lower"},
	{name: "p2p.store_msgs_per_op", unit: "count", better: "lower"},
	{name: "p2p.replicate_msgs_per_op", unit: "count", better: "lower"},
	{name: "p2p.timeouts_per_op", unit: "count", better: "lower"},
	{name: "p2p.retries_per_op", unit: "count", better: "lower"},
	{name: "p2p.query_load_cv", unit: "ratio", better: "lower"},
	{name: "pool.reuse_ratio", unit: "ratio", better: "higher"},
	{name: "store.wal_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "store.fsyncs_per_put", unit: "ratio", better: "lower"},
	{name: "blob.mib_s", unit: "MiB/s", better: "higher"},
	{name: "blob.chunk_fetches_per_read", unit: "count", better: "lower"},

	// The serial traced pass.
	{name: "p2p.us_per_hop", unit: "us", better: "lower"},
	{name: "p2p.self_us_per_op", unit: "us", better: "lower"},
	{name: "p2p.trace_local_us", unit: "us", better: "lower"},
	{name: "p2p.trace_network_us", unit: "us", better: "lower"},
	{name: "p2p.trace_queue_us", unit: "us", better: "lower"},
	{name: "p2p.trace_service_us", unit: "us", better: "lower"},
	{name: "p2p.trace_disk_us", unit: "us", better: "lower"},
	{name: "store.put_us", unit: "us", better: "lower"},
	{name: "store.get_us", unit: "us", better: "lower"},
	{name: "store.sync_us", unit: "us", better: "lower"},
	{name: "store.calls_per_op", unit: "count", better: "lower"},
	{name: "store.us_per_op", unit: "us", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "wire.writes_per_op", unit: "count", better: "lower"},
	{name: "wire.write_us_per_op", unit: "us", better: "lower"},
	{name: "wire.dials_per_op", unit: "count", better: "lower"},
	{name: "trace.op_us", unit: "us", better: "lower"},
	{name: "trace.span_coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},

	// Microloops over each layer's public functions.
	{name: "cycloid.decide_ns", unit: "ns", better: "lower"},
	{name: "codec.step_rt_ns", unit: "ns", better: "lower"},
	{name: "codec.step_bytes", unit: "B", better: "lower"},
	{name: "codec.chunk_rt_ns", unit: "ns", better: "lower"},
	{name: "pool.echo_rtt_us_mem", unit: "us", better: "lower"},
	{name: "pool.echo_rtt_us_tcp", unit: "us", better: "lower"},
	{name: "pool.chunk_mib_s_tcp", unit: "MiB/s", better: "higher"},
	{name: "telemetry.counter_inc_ns", unit: "ns", better: "lower"},
	{name: "telemetry.hist_observe_ns", unit: "ns", better: "lower"},
	{name: "blob.local_put_us", unit: "us", better: "lower"},
	{name: "blob.local_get_us", unit: "us", better: "lower"},
}

// metrics maps a metric name to its value.
type metrics map[string]float64
