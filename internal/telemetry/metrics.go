// Package telemetry is the repository's stdlib-only observability core:
// allocation-conscious metric instruments (atomic counters and gauges,
// lock-free value-striped histograms with fixed bucket layouts), a
// registry that renders them in Prometheus text format and /debug/vars
// style JSON, and distributed-tracing spans with the reconstruction that
// turns every node's spans into causal trees (span.go).
//
// Instruments are designed for hot paths: Inc/Add/Observe are single
// atomic operations on preallocated memory — no locks, no allocations,
// no map lookups — so the instrumented simulator lookup stays within
// its ≤1 alloc/op budget (see internal/cycloid/alloc_test.go).
// Registration and exposition take a mutex; reads of metric values use
// atomic loads, so scraping never blocks a lookup.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric kinds, doubling as Prometheus TYPE strings.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one registered time series: an instrument plus its rendered
// label set.
type series struct {
	labels string // rendered `{k="v",...}`, or "" for an unlabeled series
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   string
	bounds []int64 // histogram families only
	series []*series
}

// Registry holds named metrics and renders them for scraping. All
// methods are safe for concurrent use; the hot path (instrument
// updates) never touches the registry after registration.
type Registry struct {
	prefix string

	mu     sync.Mutex
	fams   []*family // insertion order, for stable exposition
	byName map[string]*family
}

// NewRegistry creates an empty registry. Every metric name is prefixed
// with prefix + "_" in the exposition (pass "" for no prefix).
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix, byName: make(map[string]*family)}
}

// fullName returns the exposition name of a family.
func (r *Registry) fullName(name string) string {
	if r.prefix == "" {
		return name
	}
	return r.prefix + "_" + name
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := "{"
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += l.Key + `="` + l.Value + `"`
	}
	return s + "}"
}

// lookup finds or creates the family and the series for name+labels.
// It panics on a kind or help mismatch — that is a programming error,
// not a runtime condition.
func (r *Registry) lookup(name, help, kind string, bounds []int64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	ls := renderLabels(labels)
	for _, s := range f.series {
		if s.labels == ls {
			return s
		}
	}
	s := &series{labels: ls}
	f.series = append(f.series, s)
	return s
}

// Counter registers (or returns the existing) counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns the existing) gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or returns the existing) histogram name{labels}
// with the given fixed bucket upper bounds (ascending; +Inf is
// implicit).
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, bounds, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = newHistogram(bounds)
	}
	return s.h
}

// Families returns the exposition names of all registered metric
// families, sorted.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, r.fullName(f.name))
	}
	sort.Strings(out)
	return out
}

// CounterValues snapshots every cumulative value in the registry —
// counters and histogram observation counts — keyed by full series name
// (labels included, histograms under "<name>_count"). Harnesses use it
// to assert counter monotonicity and cross-check timeout accounting.
func (r *Registry) CounterValues() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64)
	for _, f := range r.fams {
		for _, s := range f.series {
			key := r.fullName(f.name) + s.labels
			switch {
			case s.c != nil:
				out[key] = s.c.Value()
			case s.h != nil:
				count, _, _ := s.h.snapshot()
				out[r.fullName(f.name)+"_count"+s.labels] = count
			}
		}
	}
	return out
}

// CounterValue returns the current value of the counter series with the
// given full name (labels included), or 0 if absent.
func (r *Registry) CounterValue(fullName string) uint64 {
	return r.CounterValues()[fullName]
}
