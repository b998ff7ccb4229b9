package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkJSON renders the declaration the driver reads from the
// tables the program reports from.
func benchmarkJSON(t *testing.T) []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := benchmarkJSON(t)
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the metric and workload tables; run go test -run BenchmarkJSON -update")
	}
}

// TestDeclarationsFitTheContract checks the limits the driver refuses a
// declaration for.
func TestDeclarationsFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q with unit %q breaks the naming rules", n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var hasSetup bool
	for _, d := range endToEnd {
		check(d.name, d.unit)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s missing from the end-to-end metrics")
	}
	for _, d := range perLayer {
		check(d.name, d.unit)
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("too many or too few declarations")
	}
	for _, w := range workloads {
		check(w.name, "x")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := newSchedule(w, 7, 3, 500)
		b := newSchedule(w, 7, 3, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedule", w.name)
		}
		if c := newSchedule(w, 8, 3, 500); reflect.DeepEqual(a.windows, c.windows) || !reflect.DeepEqual(a.items, c.items) {
			t.Errorf("%s: another seed must change the traffic and keep the names", w.name)
		}
		for _, win := range a.windows {
			for i, e := range win {
				if int(e.item)%clients != i%clients || int(e.item) >= w.items || int(e.origin) >= fleetSize {
					t.Fatalf("%s: entry %d = %+v breaks the partition rule", w.name, i, e)
				}
			}
		}
	}
}

func TestQuantileMedianAndQuartiles(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if quantile([]int64{}, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if c := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(c-0.4) > 1e-12 {
		t.Errorf("cv = %v, want 0.4", c)
	}
}

func TestNormalisation(t *testing.T) {
	// A host taking twice the reference time runs at half speed: it
	// reports half the rate and twice the duration of the reference.
	speed := speedOf(2*CalRefMS, 2*CalRefMS)
	if speed != 0.5 {
		t.Fatalf("speed = %v, want 0.5", speed)
	}
	if got := normRate(1000, speed); got != 2000 {
		t.Errorf("normRate = %v", got)
	}
	if got := normDuration(80, speed); got != 40 {
		t.Errorf("normDuration = %v", got)
	}
	if s := speedOf(CalRefMS*0.9, CalRefMS*1.1); math.Abs(s-1) > 1e-12 {
		t.Errorf("bracketing calibrations should average: speed = %v", s)
	}
	ref := calSample{pMS: calRefPMS, dMS: calRefDMS}
	if math.Abs(ref.ms()-CalRefMS) > 1e-9 {
		t.Errorf("reference sample reads %v ms, want %v", ref.ms(), CalRefMS)
	}
	// Equal weight: doubling either part adds the same.
	p := calSample{pMS: 2 * calRefPMS, dMS: calRefDMS}
	d := calSample{pMS: calRefPMS, dMS: 2 * calRefDMS}
	if math.Abs(p.ms()-d.ms()) > 1e-9 || math.Abs(p.ms()-1.5*CalRefMS) > 1e-9 {
		t.Errorf("parts are not weighted equally: %v vs %v", p.ms(), d.ms())
	}
}

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{5, 10}, {0, 3}}, 8},
		{[]interval{{0, 10}, {2, 4}, {8, 15}, {20, 21}}, 16},
	} {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	k, err := newKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	if allocs := testing.AllocsPerRun(2, func() {
		if _, err := k.run(); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("kernel run allocates %v times", allocs)
	}
}

// smoke runs one workload through the command's own entry point and
// returns the result line.
func smoke(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if code := run(append(args, "-smoke"), &out, io.Discard); code != 0 {
		t.Fatalf("run %v exited %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run %v: %+v", args, res)
	}
	return res
}

func TestSmokeRunsRepeatTheirCounts(t *testing.T) {
	a := smoke(t, "-workload", "lookup", "-seed", "3")
	b := smoke(t, "-workload", "lookup", "-seed", "3")
	for _, name := range []string{"hops_per_op", "msgs_per_op", "ok_ratio"} {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

func TestSmokeReportsEveryEndToEndMetric(t *testing.T) {
	res := smoke(t, "-workload", "kv_mixed")
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value == 0 {
			t.Errorf("end-to-end metric %s = %+v", d.name, m)
		}
	}
}

func TestTracedSmokeReportsEveryLayerMetric(t *testing.T) {
	res := smoke(t, "-workload", "blob_read", "-trace", "1")
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("per-layer metric %s = %+v", d.name, m)
		}
	}
	// The three harness seams telescope to the client's op time.
	v := func(n string) float64 { return res.Metrics[n].Value }
	sum := v("store.us_per_op") + v("wire.write_us_per_op") + v("p2p.self_us_per_op")
	if op := v("trace.op_us"); math.Abs(sum-op) > 1e-6*op {
		t.Errorf("store+wire+self = %v, op = %v", sum, op)
	}
	if _, err := os.Stat("out/blob_read.trace.json"); err != nil {
		t.Error(err)
	}
}

func TestBadArgumentsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "lookup", "-trace", "2"},
		{"-workload", "lookup", "stray"},
		{},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run %v exited %d, want 2", args, code)
		}
	}
}
