package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("ops_total", "ops"); again != c {
		t.Error("re-registration did not return the same counter")
	}
	g := r.Gauge("depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry("t")
	a := r.Counter("hops_total", "hops", L("phase", "ascending"))
	b := r.Counter("hops_total", "hops", L("phase", "descending"))
	if a == b {
		t.Fatal("differently labeled series share a counter")
	}
	a.Inc()
	vals := r.CounterValues()
	if vals[`t_hops_total{phase="ascending"}`] != 1 || vals[`t_hops_total{phase="descending"}`] != 0 {
		t.Errorf("CounterValues = %v", vals)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry("t")
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("lat_us", "latency", []int64{1, 5, 10})
	for _, v := range []int64{0, 1, 2, 5, 6, 10, 11, 100} {
		h.Observe(v)
	}
	count, sum, cum := h.snapshot()
	if count != 8 {
		t.Errorf("count = %d, want 8", count)
	}
	if sum != 135 {
		t.Errorf("sum = %d, want 135", sum)
	}
	// le=1: {0,1}; le=5: +{2,5}; le=10: +{6,10}; +Inf: all.
	want := []uint64{2, 4, 6, 8}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 20, 40, 80})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	// 100 uniform observations in (0,100]: quantiles track the values up
	// to bucket granularity, capped at the last finite bound.
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	cases := []struct {
		q      float64
		lo, hi int64
	}{
		{0.10, 8, 12},  // true 10
		{0.50, 48, 52}, // true 50, interpolated inside (40,80]
		{0.79, 76, 80}, // true 79
		{0.99, 80, 80}, // +Inf bucket → last finite bound
		{1.00, 80, 80},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Errorf("Quantile(%v) = %d, want in [%d,%d]", c.q, got, c.lo, c.hi)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(HopBuckets)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64((w + i) % 20))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Errorf("count = %d, want %d", got, workers*per)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry("demo")
	r.Counter("requests_total", "Requests served.", L("op", "step")).Add(3)
	r.Counter("requests_total", "Requests served.", L("op", "fetch"))
	r.Gauge("keys", "Stored keys.").Set(2)
	h := r.Histogram("hops", "Path length.", []int64{1, 2})
	h.Observe(1)
	h.Observe(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP demo_requests_total Requests served.
# TYPE demo_requests_total counter
demo_requests_total{op="step"} 3
demo_requests_total{op="fetch"} 0
# HELP demo_keys Stored keys.
# TYPE demo_keys gauge
demo_keys 2
# HELP demo_hops Path length.
# TYPE demo_hops histogram
demo_hops_bucket{le="1"} 1
demo_hops_bucket{le="2"} 1
demo_hops_bucket{le="+Inf"} 2
demo_hops_sum 4
demo_hops_count 2
`
	if buf.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Errorf("Lint rejected own exposition: %v", err)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry("demo")
	r.Counter("ops_total", "ops").Add(2)
	r.Histogram("hops", "hops", []int64{1}).Observe(1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if out["demo_ops_total"].(float64) != 2 {
		t.Errorf("ops_total = %v", out["demo_ops_total"])
	}
	hist := out["demo_hops"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Errorf("hops count = %v", hist["count"])
	}
}

func TestLint(t *testing.T) {
	bad := []byte("orphan_metric 3\n")
	if err := Lint(bad); err == nil || !strings.Contains(err.Error(), "orphan_metric") {
		t.Errorf("Lint(%q) = %v, want HELP error", bad, err)
	}
	noType := []byte("# HELP m m\nm 1\n")
	if err := Lint(noType); err == nil || !strings.Contains(err.Error(), "TYPE") {
		t.Errorf("Lint without TYPE = %v, want TYPE error", err)
	}
	ok := []byte("# HELP m m\n# TYPE m counter\nm{op=\"a\"} 1\n")
	if err := Lint(ok); err != nil {
		t.Errorf("Lint(ok) = %v", err)
	}
}

func TestExpositionFamilies(t *testing.T) {
	text := []byte("# HELP b bb\n# TYPE b counter\nb 0\n# HELP a aa\n# TYPE a gauge\na 1\n")
	got := ExpositionFamilies(text)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("ExpositionFamilies = %v", got)
	}
}

func TestLookupStats(t *testing.T) {
	r := NewRegistry("sim")
	ls := NewLookupStats(r, []string{"ascending", "descending", "traverse"})
	ls.Lookups.Inc()
	ls.HopPhase(0)
	ls.HopPhase(2)
	ls.HopPhase(9) // out of range -> "other"
	ls.Hops.Observe(3)
	vals := r.CounterValues()
	if vals[`sim_lookup_hops_total{phase="ascending"}`] != 1 ||
		vals[`sim_lookup_hops_total{phase="traverse"}`] != 1 ||
		vals[`sim_lookup_hops_total{phase="other"}`] != 1 {
		t.Errorf("phase counters wrong: %v", vals)
	}
}
