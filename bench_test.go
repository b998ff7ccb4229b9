package cycloid_test

// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks for the library's hot paths. Run cmd/cycloid-bench
// for the full paper-scale sweeps and formatted output, and
// benchmark/run.sh for the end-to-end benchmark of the live stack.

import (
	"fmt"
	"testing"

	"cycloid"
	"cycloid/internal/experiments"
	"cycloid/internal/telemetry"
)

// benchSeed keeps benchmark workloads deterministic across runs.
const benchSeed = 42

func BenchmarkTable1Lookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(benchSeed, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5PathLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunPathLength(experiments.PathLengthOptions{
			Seed: benchSeed, LookupBudget: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunPathLength(experiments.PathLengthOptions{
			Seed: benchSeed, LookupBudget: 20000, Dims: []int{7, 8},
			DHTs: []string{"cycloid-7", "viceroy", "koorde"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8KeyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunKeyDistribution(experiments.KeyDistributionOptions{
			Nodes: 2000, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9KeyDistributionSparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunKeyDistribution(experiments.KeyDistributionOptions{
			Nodes: 1000, Seed: benchSeed,
			DHTs: []string{"cycloid-7", "chord", "koorde"},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10QueryLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunQueryLoad(experiments.QueryLoadOptions{
			Seed: benchSeed, LookupBudget: 20000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11MassDeparture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunFailures(experiments.FailureOptions{
			Seed: benchSeed, Lookups: 2000, Probs: []float64{0.1, 0.3, 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Churn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunChurn(experiments.ChurnOptions{
			Seed: benchSeed, Lookups: 1000, Rates: []float64{0.05, 0.40},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Sparsity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunSparsity(experiments.SparsityOptions{
			Seed: benchSeed, Lookups: 2000,
			Sparsities: []float64{0, 0.5, 0.9},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14KoordeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunSparsity(experiments.SparsityOptions{
			Seed: benchSeed, Lookups: 2000, DHTs: []string{"koorde"},
			Sparsities: []float64{0, 0.5, 0.9},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLeafSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunAblationLeafSet(experiments.AblationLeafSetOptions{
			Seed: benchSeed, LookupBudget: 10000,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunAblationStabilization(experiments.AblationStabilizationOptions{
			Seed: benchSeed, Lookups: 800, Intervals: []float64{10, 60},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUngracefulFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.RunUngraceful(experiments.UngracefulOptions{
			Seed: benchSeed, Lookups: 1000, Probs: []float64{0.2, 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookup measures a single Cycloid lookup on the paper's
// 2048-node network — the library's core hot path.
func BenchmarkLookup(b *testing.B) { benchLookup(b, false) }

// BenchmarkLookupInstrumented is BenchmarkLookup with telemetry
// recording every hop, timeout and completion. It bounds the overhead
// of the metrics layer on the library's hottest path; the instruments
// are preallocated atomics, so allocs/op must match BenchmarkLookup
// exactly.
func BenchmarkLookupInstrumented(b *testing.B) { benchLookup(b, true) }

// benchLookup times lookups over pregenerated keys, so the measurement
// covers hashing and routing, not fmt.Sprintf.
func benchLookup(b *testing.B, instrumented bool) {
	d, err := cycloid.Bootstrap(2048, cycloid.Options{Dim: 8, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	if instrumented {
		d.EnableTelemetry(telemetry.NewRegistry("sim"))
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

// BenchmarkPutGet measures the key/value layer end to end.
func BenchmarkPutGet(b *testing.B) {
	d, err := cycloid.Bootstrap(1024, cycloid.Options{Dim: 8, Seed: benchSeed})
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

// BenchmarkJoinLeave measures the churn protocol cost.
func BenchmarkJoinLeave(b *testing.B) {
	d, err := cycloid.Bootstrap(512, cycloid.Options{Dim: 8, Seed: benchSeed})
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
