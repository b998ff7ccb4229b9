// Package bench defines the repository's `go test -bench` workloads, run
// through the thin wrappers in bench_test.go at the repository root: one
// case per table and figure of the paper's evaluation, plus
// microbenchmarks for the library's hot paths.
package bench

import (
	"fmt"
	"testing"

	"cycloid"
	"cycloid/internal/experiments"
	"cycloid/internal/telemetry"
)

// Seed keeps benchmark workloads deterministic across runs.
const Seed = 42

// Case is one named benchmark workload.
type Case struct {
	Name string
	F    func(b *testing.B)
}

// Cases returns every benchmark workload in a stable order.
func Cases() []Case {
	return []Case{
		{"Table1Lookup", benchTable1Lookup},
		{"Fig5PathLength", benchFig5PathLength},
		{"Fig7Breakdown", benchFig7Breakdown},
		{"Fig8KeyDistribution", benchFig8KeyDistribution},
		{"Fig9KeyDistributionSparse", benchFig9KeyDistributionSparse},
		{"Fig10QueryLoad", benchFig10QueryLoad},
		{"Fig11MassDeparture", benchFig11MassDeparture},
		{"Fig12Churn", benchFig12Churn},
		{"Fig13Sparsity", benchFig13Sparsity},
		{"Fig14KoordeBreakdown", benchFig14KoordeBreakdown},
		{"AblationLeafSet", benchAblationLeafSet},
		{"AblationStabilization", benchAblationStabilization},
		{"UngracefulFailures", benchUngracefulFailures},
		{"Lookup", benchLookup},
		{"LookupInstrumented", benchLookupInstrumented},
		{"PutGet", benchPutGet},
		{"JoinLeave", benchJoinLeave},
	}
}

// Run executes the named case under b, failing the benchmark if the name
// is unknown.
func Run(b *testing.B, name string) {
	for _, c := range Cases() {
		if c.Name == name {
			c.F(b)
			return
		}
	}
	b.Fatalf("bench: unknown case %q", name)
}

func benchTable1Lookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(Seed, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig5PathLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunPathLength(experiments.PathLengthOptions{
			Seed: Seed, LookupBudget: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig7Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunPathLength(experiments.PathLengthOptions{
			Seed: Seed, LookupBudget: 20000, Dims: []int{7, 8},
			DHTs: []string{"cycloid-7", "viceroy", "koorde"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig8KeyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunKeyDistribution(experiments.KeyDistributionOptions{
			Nodes: 2000, Seed: Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig9KeyDistributionSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunKeyDistribution(experiments.KeyDistributionOptions{
			Nodes: 1000, Seed: Seed,
			DHTs: []string{"cycloid-7", "chord", "koorde"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig10QueryLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunQueryLoad(experiments.QueryLoadOptions{
			Seed: Seed, LookupBudget: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig11MassDeparture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunFailures(experiments.FailureOptions{
			Seed: Seed, Lookups: 2000, Probs: []float64{0.1, 0.3, 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig12Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunChurn(experiments.ChurnOptions{
			Seed: Seed, Lookups: 1000, Rates: []float64{0.05, 0.40},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig13Sparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunSparsity(experiments.SparsityOptions{
			Seed: Seed, Lookups: 2000,
			Sparsities: []float64{0, 0.5, 0.9},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchFig14KoordeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunSparsity(experiments.SparsityOptions{
			Seed: Seed, Lookups: 2000, DHTs: []string{"koorde"},
			Sparsities: []float64{0, 0.5, 0.9},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblationLeafSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunAblationLeafSet(experiments.AblationLeafSetOptions{
			Seed: Seed, LookupBudget: 10000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblationStabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunAblationStabilization(experiments.AblationStabilizationOptions{
			Seed: Seed, Lookups: 800, Intervals: []float64{10, 60},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchUngracefulFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunUngraceful(experiments.UngracefulOptions{
			Seed: Seed, Lookups: 1000, Probs: []float64{0.2, 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchLookup measures a single Cycloid lookup on the paper's 2048-node
// network — the library's core hot path. Keys are pregenerated so the
// measurement covers hashing and routing, not fmt.Sprintf.
func benchLookup(b *testing.B) {
	d, err := cycloid.Bootstrap(2048, cycloid.Options{Dim: 8, Seed: Seed})
	if err != nil {
		b.Fatal(err)
	}
	nodes := d.Nodes()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Lookup(nodes[i%len(nodes)], keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLookupInstrumented is benchLookup with telemetry recording every
// hop, timeout and completion. Comparing the two cases in
// BENCH_cycloid.json bounds the overhead of the metrics layer on the
// library's hottest path; the instruments are preallocated atomics, so
// allocs/op must match benchLookup exactly.
func benchLookupInstrumented(b *testing.B) {
	d, err := cycloid.Bootstrap(2048, cycloid.Options{Dim: 8, Seed: Seed})
	if err != nil {
		b.Fatal(err)
	}
	d.EnableTelemetry(telemetry.NewRegistry("sim"))
	nodes := d.Nodes()
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Lookup(nodes[i%len(nodes)], keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPutGet measures the key/value layer end to end.
func benchPutGet(b *testing.B) {
	d, err := cycloid.Bootstrap(1024, cycloid.Options{Dim: 8, Seed: Seed})
	if err != nil {
		b.Fatal(err)
	}
	from := d.Nodes()[0]
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%len(keys)]
		if err := d.Put(key, []byte("v")); err != nil {
			b.Fatal(err)
		}
		if _, _, err := d.Get(from, key); err != nil {
			b.Fatal(err)
		}
	}
}

// benchJoinLeave measures the churn protocol cost.
func benchJoinLeave(b *testing.B) {
	d, err := cycloid.Bootstrap(512, cycloid.Options{Dim: 8, Seed: Seed})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := d.Join()
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Leave(id); err != nil {
			b.Fatal(err)
		}
	}
}
