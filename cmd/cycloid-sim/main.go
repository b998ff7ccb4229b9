// Command cycloid-sim builds a Cycloid network and inspects it
// interactively from the command line: route lookups hop by hop, print
// routing tables, store and fetch keys, and churn the membership.
//
// Usage:
//
//	cycloid-sim -nodes 500 -dim 8 route "some key"
//	cycloid-sim -nodes 200 table "(4,10110110)"
//	cycloid-sim -nodes 200 owner movie.mkv
//	cycloid-sim -nodes 300 churn 50
//	cycloid-sim -nodes 2000 phases 1000
//	cycloid-sim metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"cycloid"
	"cycloid/internal/chaosrunner"
	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/internal/loadgen"
	"cycloid/internal/telemetry"
	"cycloid/p2p"
	"cycloid/p2p/memnet"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: cycloid-sim [flags] <command> [args]

commands:
  route <key>      route a lookup for <key> from a random node, hop by hop
  owner <key>      print the node responsible for <key>
  table <(k,a)>    print a node's routing table, e.g. "(4,10110110)"
  nodes            list the live nodes
  churn <rounds>   run <rounds> of one join + one leave, then verify lookups
  phases <n>       route <n> random lookups under telemetry and print the
                   per-phase hop breakdown (the paper's Figure 7 view)
  metrics          boot a live 8-node in-memory overlay, drive traffic,
                   self-scrape its metrics endpoint, lint the exposition
                   and print node 0's span trees, whose step spans carry
                   each hop's routing phase (the CI smoke check)
  chaos <rounds>   run live p2p nodes on the in-memory transport through
                   <rounds> of seeded faults and membership churn
                   (-nodes, -dim, -seed apply; -chaos-trace dumps state;
                   -restarts runs the kill/restart durability tier;
                   -overload runs the admission-control overload tier)
  trace [id]       boot a live overlay with distributed
                   tracing on (-trace-sample), drive load-during-churn
                   through a shedding victim, reconstruct every sampled
                   trace into a causal span tree, assert the trace-
                   completeness invariant, and render the trees (all of
                   them to -trace-out, the given or deepest one to
                   stdout)

flags:
`)
	flag.PrintDefaults()
}

func main() {
	var (
		nodes    = flag.Int("nodes", 500, "network size")
		dim      = flag.Int("dim", 8, "Cycloid dimension d (ID space d*2^d)")
		leaf     = flag.Int("leaf", 1, "leaf-set half width (1 = 7-entry, 2 = 11-entry)")
		seed     = flag.Int64("seed", 1, "random seed")
		trace    = flag.Bool("chaos-trace", false, "chaos: dump per-round routing state")
		replicas = flag.Int("replicas", 1, "chaos: replication factor R (keys survive f < R simultaneous crashes)")
		crashes  = flag.Int("crashes", 1, "chaos: max simultaneous crashes per crash event")
		loaders  = flag.Int("load-clients", 0, "chaos: load-during-churn workers (0 = off)")
		restarts = flag.Bool("restarts", false, "chaos: upgrade crashes to kill/restart cycles on durable disk-backed stores (temp data dirs; asserts the durability invariants)")
		overload = flag.Bool("overload", false, "chaos: run the overload-protection tier instead of the fault schedule (Zipf hot keys hammer a victim with a tiny admission cap; asserts shedding, conservation, acked-Put durability and bounded control p99)")
		sample   = flag.Float64("trace-sample", 0.01, "trace: probabilistic distributed-tracing sample rate in [0,1] (anomalies force sampling regardless)")
		traceOut = flag.String("trace-out", "", "trace: write every reconstructed span tree to this file")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}

	// The live-node commands run at a smaller scale than the simulator,
	// so they bring their own defaults for the flags left unset.
	switch flag.Arg(0) {
	case "chaos":
		runChaos(flagOr("nodes", 12), flagOr("dim", 6), *seed, *trace, *replicas, *crashes, *loaders, *restarts, *overload)
		return
	case "metrics":
		runMetrics(flagOr("nodes", 8), flagOr("dim", 6), *seed, *replicas)
		return
	case "trace":
		runTrace(flagOr("nodes", 8), flagOr("dim", 6), *seed, flagOr("replicas", 3), *sample, flag.Arg(1), *traceOut)
		return
	}

	d, err := cycloid.Bootstrap(*nodes, cycloid.Options{Dim: *dim, LeafSetHalf: *leaf, Seed: *seed})
	if err != nil {
		fail(err)
	}

	switch cmd := flag.Arg(0); cmd {
	case "route":
		need(2, "route <key>")
		key := flag.Arg(1)
		from := d.Nodes()[0]
		r, err := d.Lookup(from, key)
		if err != nil {
			fail(err)
		}
		fmt.Printf("key %q hashes to owner %s\n", key, fmtID(d, r.Terminal))
		fmt.Printf("route (%d hops, %d timeouts):\n", r.PathLength(), r.Timeouts)
		fmt.Printf("  start %s\n", fmtID(d, r.Source))
		for _, h := range r.Hops {
			fmt.Printf("  -[%-10s]-> %s\n", h.Phase, fmtID(d, h.To))
		}
	case "owner":
		need(2, "owner <key>")
		id, err := d.Owner(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", fmtID(d, id))
	case "table":
		need(2, `table "(k,binary-a)"`)
		var k uint8
		var abits string
		if _, err := fmt.Sscanf(flag.Arg(1), "(%d,%s", &k, &abits); err != nil {
			fail(fmt.Errorf("cannot parse node id %q: %w", flag.Arg(1), err))
		}
		abits = trimParen(abits)
		var a uint32
		for _, c := range abits {
			a <<= 1
			if c == '1' {
				a |= 1
			} else if c != '0' {
				fail(fmt.Errorf("cubical index %q must be binary", abits))
			}
		}
		table, err := d.RoutingTable(cycloid.NodeID{K: k, A: a})
		if err != nil {
			fail(err)
		}
		fmt.Print(table)
	case "nodes":
		for _, id := range d.Nodes() {
			fmt.Println(fmtID(d, id))
		}
	case "phases":
		need(2, "phases <lookups>")
		var count int
		if _, err := fmt.Sscanf(flag.Arg(1), "%d", &count); err != nil {
			fail(err)
		}
		runPhases(d, count, *seed)
	case "churn":
		need(2, "churn <rounds>")
		var rounds int
		if _, err := fmt.Sscanf(flag.Arg(1), "%d", &rounds); err != nil {
			fail(err)
		}
		for i := 0; i < rounds; i++ {
			if _, err := d.Join(); err != nil {
				fail(err)
			}
			if err := d.Leave(d.Nodes()[i%d.Size()]); err != nil {
				fail(err)
			}
		}
		d.Stabilize()
		ok := 0
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("verify-%d", i)
			r, err := d.Lookup(d.Nodes()[i%d.Size()], key)
			if err != nil {
				fail(err)
			}
			owner, err := d.Owner(key)
			if err != nil {
				fail(err)
			}
			if r.Terminal == owner {
				ok++
			}
		}
		fmt.Printf("after %d join/leave rounds: %d nodes, %d/100 verification lookups exact\n",
			rounds, d.Size(), ok)
	default:
		usage()
		os.Exit(2)
	}
}

// flagOr returns the named int flag's value when the command line set
// it, and def otherwise.
func flagOr(name string, def int) int {
	v := def
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			v = f.Value.(flag.Getter).Get().(int)
		}
	})
	return v
}

// runChaos drives live p2p nodes on the deterministic in-memory
// transport through a seeded schedule of faults and membership churn,
// then reports the per-round timeout counts and invariant violations.
func runChaos(nodes, dim int, seed int64, trace bool, replicas, crashes int, loaders int, restarts, overload bool) {
	rounds := 8
	if flag.NArg() >= 2 {
		if _, err := fmt.Sscanf(flag.Arg(1), "%d", &rounds); err != nil {
			fail(fmt.Errorf("cannot parse round count %q: %w", flag.Arg(1), err))
		}
	}
	cfg := chaosrunner.Config{
		Seed: seed, Dim: dim, Nodes: nodes, Rounds: rounds,
		Replicas: replicas, MultiCrash: crashes,
		LoadClients: loaders,
		KillRestart: restarts, Overload: overload,
	}
	if trace {
		cfg.Trace = os.Stderr
	}
	fmt.Printf("chaos: seed %d, %d nodes, dim %d, %d rounds, R=%d, <=%d crashes/event, load-clients=%d, kill-restart=%v, overload=%v\n",
		seed, nodes, dim, rounds, replicas, crashes, loaders, restarts, overload)
	if !overload {
		// The overload tier replaces the fault schedule with load phases;
		// the crash/partition schedule only applies to the regular tiers.
		for _, ev := range chaosrunner.GenerateSchedule(cfg) {
			fmt.Printf("  round %2d: %-12s node=%d p=%.2f\n", ev.Round, ev.Kind, ev.Node, ev.P)
		}
	}
	res, err := chaosrunner.Run(cfg)
	if err != nil {
		fail(err)
	}
	for _, r := range res.Rounds {
		fmt.Printf("round %2d: live=%2d fault-timeouts=%3d clean-timeouts=%d violations=%d",
			r.Round, r.Live, r.FaultTimeouts, r.CleanTimeouts, len(r.Violations))
		if r.LoadOps > 0 {
			fmt.Printf(" load=%d/%d errors", r.LoadErrors, r.LoadOps)
		}
		fmt.Println()
	}
	if res.Kills > 0 || res.Restarts > 0 {
		fmt.Printf("kill/restart cycles: %d kills, %d restarts\n", res.Kills, res.Restarts)
	}
	if o := res.Overload; o != nil {
		fmt.Printf("overload: victim %s, %d hot keys\n", o.Victim, o.HotKeys)
		fmt.Printf("  victim admission: offered=%d admitted=%d shed=%d queue-timeouts=%d\n",
			o.Offered, o.Admitted, o.Shed, o.QueueTimeouts)
		fmt.Printf("  control p99: %dus unloaded -> %dus while shedding\n",
			o.BaselineP99us, o.OverloadP99us)
		fmt.Printf("  traffic: hot=%d ops (%d pushed back), control=%d ops (%d errors), fleet retries=%d, acked puts=%d\n",
			o.HotOps, o.HotErrors, o.CtrlOps, o.CtrlErrors, o.FleetRetries, o.AckedPuts)
	}
	fmt.Printf("final: %d live nodes, %d keys tracked\n", res.FinalLive, res.FinalKeys)
	if len(res.Violations) > 0 {
		fmt.Printf("%d invariant violations:\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Println(" ", v)
		}
		os.Exit(1)
	}
	fmt.Println("all invariants held")
}

// runPhases drives count random lookups with telemetry enabled and
// prints the per-phase hop breakdown the counters recorded — the
// simulator-side view of the paper's Figure 7.
func runPhases(d *cycloid.DHT, count int, seed int64) {
	reg := telemetry.NewRegistry("sim")
	d.EnableTelemetry(reg)
	rng := rand.New(rand.NewSource(seed))
	nodes := d.Nodes()
	timeouts := 0
	for i := 0; i < count; i++ {
		r, err := d.Lookup(nodes[rng.Intn(len(nodes))], fmt.Sprintf("phase-key-%d", i))
		if err != nil {
			fail(err)
		}
		timeouts += r.Timeouts
	}
	vals := reg.CounterValues()
	var total uint64
	for _, p := range []string{"ascending", "descending", "traverse"} {
		total += vals[fmt.Sprintf("sim_lookup_hops_total{phase=%q}", p)]
	}
	fmt.Printf("phases: %d lookups across %d nodes (dim %d)\n", count, d.Size(), d.Dim())
	for _, p := range []string{"ascending", "descending", "traverse"} {
		hops := vals[fmt.Sprintf("sim_lookup_hops_total{phase=%q}", p)]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(hops) / float64(total)
		}
		fmt.Printf("  %-10s %7d hops  %5.1f%%\n", p, hops, pct)
	}
	fmt.Printf("total %d hops, %.2f avg/lookup, %d timeouts, %d failures\n",
		total, float64(total)/float64(count), timeouts, vals["sim_lookup_failures_total"])
}

// runMetrics is the observability smoke check CI runs: it boots a live
// overlay on the deterministic in-memory fabric, drives puts and gets,
// serves one node's introspection endpoint on a loopback port,
// self-scrapes it, lints the exposition (HELP/TYPE present and
// consistent), cross-checks exposed metric families against the
// registry in both directions, and scrapes node 0's span trees, every
// operation of node 0 being sampled. Any violation exits nonzero,
// including a scrape with no tree or no step span annotated with the
// routing phase of its hop.
func runMetrics(nodes, dim int, seed int64, replicas int) {
	o := bootMem(seed, dim, nodes, func(ord int) p2p.Config {
		cfg := p2p.Config{Replicas: replicas}
		if ord == 0 {
			cfg.TraceSample = 1
		}
		return cfg
	})
	defer o.close()
	cluster := o.nodes
	var steps []loadgen.Step
	for i := 0; i < 24; i++ {
		key := fmt.Sprintf("key-%d", i)
		steps = append(steps,
			loadgen.Step{Op: loadgen.OpPut, Node: cluster[i%len(cluster)], Key: key, Value: []byte(fmt.Sprintf("v%d", i))},
			loadgen.Step{Op: loadgen.OpGet, Node: cluster[(i+3)%len(cluster)], Key: key})
	}
	h := new(loadgen.History)
	h.Barrier()
	(&loadgen.Exec{History: h}).Start([][]loadgen.Step{steps})()
	if vs := h.Check(0); len(vs) > 0 {
		fail(fmt.Errorf("consistency violations, first: %s", vs[0]))
	}
	fmt.Printf("metrics: %d live nodes (dim %d, R=%d), 24 keys written and read back\n",
		len(cluster), dim, replicas)

	// Serve node 0's endpoint on a real loopback socket and scrape it
	// over HTTP, exactly as an operator or Prometheus would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: telemetry.Handler(cluster[0].Telemetry(), cluster[0].Spans())}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	body := fetch(base + "/metrics")
	if err := telemetry.Lint(body); err != nil {
		fail(fmt.Errorf("exposition lint: %w", err))
	}
	fmt.Printf("scraped %s/metrics: %d bytes, lint clean\n", base, len(body))

	exposed := telemetry.ExpositionFamilies(body)
	registered := cluster[0].Telemetry().Families()
	if err := sameFamilies(exposed, registered); err != nil {
		fail(err)
	}
	fmt.Printf("exposition and registry agree on %d metric families\n", len(registered))

	var vars map[string]any
	if err := json.Unmarshal(fetch(base+"/debug/vars"), &vars); err != nil {
		fail(fmt.Errorf("/debug/vars is not valid JSON: %w", err))
	}
	fmt.Printf("/debug/vars parses: %d series\n", len(vars))

	var trees []*telemetry.SpanTree
	if err := json.Unmarshal(fetch(base+"/debug/spans?format=json"), &trees); err != nil {
		fail(fmt.Errorf("/debug/spans is not valid JSON: %w", err))
	}
	if len(trees) == 0 {
		fail(fmt.Errorf("node 0 sampled every operation but /debug/spans holds no trees"))
	}
	phased := 0
	var walk func(sn *telemetry.SpanNode)
	walk = func(sn *telemetry.SpanNode) {
		for _, a := range sn.Span.Annotations {
			if strings.HasPrefix(a, "phase=") { // only a hop's step span has one
				phased++
			}
		}
		for _, c := range sn.Children {
			walk(c)
		}
	}
	for _, t := range trees {
		if t.Root != nil {
			walk(t.Root)
		}
	}
	if phased == 0 {
		fail(fmt.Errorf("no step span among %d trees carries a routing phase", len(trees)))
	}
	fmt.Printf("scraped %s/debug/spans: %d trees, %d phase-annotated step spans; last three:\n", base, len(trees), phased)
	for _, t := range trees[max(0, len(trees)-3):] {
		t.Format(os.Stdout)
	}
	fmt.Println("metrics smoke check passed")
}

// runTrace is the distributed-tracing smoke check: a live memnet
// overlay with per-request trace context on the wire, driven
// through load-during-churn with one member shedding under a tiny
// admission cap, then every member's span buffer merged — the
// in-process equivalent of scraping each /debug/spans — and each trace
// reconstructed into a causal tree. The run fails unless every
// reconstructed trace satisfies the completeness invariant (single
// root, call counts match, no detached spans: nothing crashed, so
// nothing may be missing).
func runTrace(nodes, dim int, seed int64, replicas int, sample float64, wantID, outPath string) {
	o := bootMem(seed, dim, nodes, func(ord int) p2p.Config {
		cfg := p2p.Config{
			Replicas:    replicas,
			TraceSample: sample,
			SpanBuffer:  1 << 15,
		}
		if ord == 0 {
			// The victim: a tiny admission cap plus simulated service
			// time, so concurrent load sheds and forces anomaly traces.
			cfg.MaxInflight = 1
			cfg.QueueDepth = 1
			cfg.ServiceDelay = time.Millisecond
		}
		return cfg
	})
	defer o.close()

	// Load-during-churn: four clients write and read keys (some owned by
	// the shedding victim) while two extra members join mid-run. Their
	// history must hold no value that was never written.
	const ops = 64
	plan := make([][]loadgen.Step, 4)
	for w := range plan {
		for i := 0; i < ops; i++ {
			s := loadgen.Step{Op: loadgen.OpGet, Node: o.nodes[(w+i)%len(o.nodes)], Key: fmt.Sprintf("key-%d", (w*ops+i)%24)}
			if i%2 == 0 {
				s.Op, s.Value = loadgen.OpPut, []byte(fmt.Sprintf("v%d-%d", w, i))
			}
			plan[w] = append(plan[w], s)
		}
	}
	h := new(loadgen.History)
	wait := (&loadgen.Exec{History: h}).Start(plan)
	o.grow(2)
	wait()
	fleet.Stabilize(o.nodes, 2)
	if vs := h.Check(0); len(vs) > 0 {
		fail(fmt.Errorf("consistency violations, first: %s", vs[0]))
	}

	cluster := o.nodes
	var spans []*telemetry.Span
	var sampled, forced uint64
	for _, nd := range cluster {
		spans = append(spans, nd.Spans().Snapshot()...)
		sampled += nd.Telemetry().CounterValue("cycloid_traces_sampled_total")
		forced += nd.Telemetry().CounterValue("cycloid_traces_forced_total")
	}
	trees := telemetry.BuildTrees(spans)
	fmt.Printf("trace: %d members (dim %d, R=%d, sample %g): %d spans, %d traces (%d sampled, %d forced)\n",
		len(cluster), dim, replicas, sample, len(spans), len(trees), sampled, forced)
	if len(trees) == 0 {
		fail(fmt.Errorf("no traces collected; sheds alone should have forced some"))
	}
	if forced == 0 {
		fail(fmt.Errorf("the shedding victim forced no traces"))
	}

	// Trace-completeness invariant: no member crashed, so every tree must
	// be fully rooted with matching call counts.
	violations := 0
	for _, tr := range trees {
		for _, v := range tr.Check(false) {
			violations++
			fmt.Fprintf(os.Stderr, "violation: %s\n", v)
		}
	}
	if violations > 0 {
		fail(fmt.Errorf("%d trace-completeness violations across %d traces", violations, len(trees)))
	}
	fmt.Printf("trace-completeness invariant holds for all %d traces\n", len(trees))

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fail(err)
		}
		for _, tr := range trees {
			tr.Format(f)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d reconstructed trees to %s\n", len(trees), outPath)
	}

	// Render the requested trace, or the deepest (most spans) as the
	// exemplar.
	var show *telemetry.SpanTree
	for _, tr := range trees {
		if wantID != "" {
			if tr.TraceID == wantID {
				show = tr
				break
			}
			continue
		}
		if show == nil || tr.Spans > show.Spans {
			show = tr
		}
	}
	if wantID != "" && show == nil {
		fail(fmt.Errorf("trace %s not found among %d traces", wantID, len(trees)))
	}
	show.Format(os.Stdout)
}

// memOverlay is the metrics and trace smoke checks' testbed: live nodes
// on the deterministic in-memory fabric, named m0, m1, ... in start
// order, booted through fleet from one seeded stream.
type memOverlay struct {
	deal  *fleet.Dealer
	start func(ord int, id ids.CycloidID) (*p2p.Node, error)
	nodes []*p2p.Node
}

// bootMem starts n members and runs three stabilization sweeps. config
// gives member ord's settings beyond ID, Dim, fabric and dial budget.
// Any failure ends the run.
func bootMem(seed int64, dim, n int, config func(ord int) p2p.Config) *memOverlay {
	nw := memnet.New(seed)
	o := &memOverlay{
		deal: fleet.NewDealer(rand.New(rand.NewSource(seed)), ids.NewSpace(dim)),
		start: func(ord int, id ids.CycloidID) (*p2p.Node, error) {
			cfg := config(ord)
			cfg.Dim = dim
			cfg.ID = &id
			cfg.DialTimeout = 200 * time.Millisecond
			cfg.Transport = nw.Host(fmt.Sprintf("m%d", ord))
			return p2p.Start(cfg)
		},
	}
	o.grow(n)
	fleet.Stabilize(o.nodes, 3)
	return o
}

// grow starts and joins n more members. Any failure ends the run.
func (o *memOverlay) grow(n int) {
	var err error
	if o.nodes, err = fleet.Boot(o.deal, o.nodes, n, o.start); err != nil {
		o.close()
		fail(err)
	}
}

func (o *memOverlay) close() {
	for _, nd := range o.nodes {
		nd.Close()
	}
}

// fetch GETs a URL and returns the body, failing the run on any error.
func fetch(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("GET %s: %s", url, resp.Status))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fail(err)
	}
	return body
}

// sameFamilies requires the scraped exposition and the registry to list
// exactly the same metric families: an exposed-but-unregistered family
// means something bypassed the registry; a registered-but-unexposed one
// means the exposition dropped it.
func sameFamilies(exposed, registered []string) error {
	have := make(map[string]bool, len(exposed))
	for _, f := range exposed {
		have[f] = true
	}
	want := make(map[string]bool, len(registered))
	for _, f := range registered {
		want[f] = true
		if !have[f] {
			return fmt.Errorf("registered family %q missing from exposition", f)
		}
	}
	for _, f := range exposed {
		if !want[f] {
			return fmt.Errorf("exposition contains unregistered family %q", f)
		}
	}
	return nil
}

func fmtID(d *cycloid.DHT, id cycloid.NodeID) string {
	return fmt.Sprintf("(%d,%0*b)", id.K, d.Dim(), id.A)
}

func trimParen(s string) string {
	for len(s) > 0 && (s[len(s)-1] == ')' || s[len(s)-1] == ' ') {
		s = s[:len(s)-1]
	}
	return s
}

func need(n int, form string) {
	if flag.NArg() < n {
		fmt.Fprintf(os.Stderr, "usage: cycloid-sim %s\n", form)
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cycloid-sim:", err)
	os.Exit(1)
}
