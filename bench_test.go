package cycloid_test

// One benchmark per table and figure of the paper's evaluation, plus
// microbenchmarks for the library's hot paths. The workloads themselves
// live in internal/bench; these wrappers only bind them to `go test
// -bench` names. Run cmd/cycloid-bench for the full paper-scale sweeps
// and formatted output, and benchmark/run.sh for the end-to-end
// benchmark of the live stack.

import (
	"testing"

	"cycloid/internal/bench"
)

func BenchmarkTable1Lookup(b *testing.B)        { bench.Run(b, "Table1Lookup") }
func BenchmarkFig5PathLength(b *testing.B)      { bench.Run(b, "Fig5PathLength") }
func BenchmarkFig7Breakdown(b *testing.B)       { bench.Run(b, "Fig7Breakdown") }
func BenchmarkFig8KeyDistribution(b *testing.B) { bench.Run(b, "Fig8KeyDistribution") }
func BenchmarkFig9KeyDistributionSparse(b *testing.B) {
	bench.Run(b, "Fig9KeyDistributionSparse")
}
func BenchmarkFig10QueryLoad(b *testing.B)        { bench.Run(b, "Fig10QueryLoad") }
func BenchmarkFig11MassDeparture(b *testing.B)    { bench.Run(b, "Fig11MassDeparture") }
func BenchmarkFig12Churn(b *testing.B)            { bench.Run(b, "Fig12Churn") }
func BenchmarkFig13Sparsity(b *testing.B)         { bench.Run(b, "Fig13Sparsity") }
func BenchmarkFig14KoordeBreakdown(b *testing.B)  { bench.Run(b, "Fig14KoordeBreakdown") }
func BenchmarkAblationLeafSet(b *testing.B)       { bench.Run(b, "AblationLeafSet") }
func BenchmarkAblationStabilization(b *testing.B) { bench.Run(b, "AblationStabilization") }
func BenchmarkUngracefulFailures(b *testing.B)    { bench.Run(b, "UngracefulFailures") }
func BenchmarkLookup(b *testing.B)                { bench.Run(b, "Lookup") }
func BenchmarkLookupInstrumented(b *testing.B)    { bench.Run(b, "LookupInstrumented") }
func BenchmarkPutGet(b *testing.B)                { bench.Run(b, "PutGet") }
func BenchmarkJoinLeave(b *testing.B)             { bench.Run(b, "JoinLeave") }

// TestBenchWrappersCoverRegistry keeps the wrapper list above in sync
// with the internal/bench registry.
func TestBenchWrappersCoverRegistry(t *testing.T) {
	want := map[string]bool{
		"Table1Lookup": true, "Fig5PathLength": true, "Fig7Breakdown": true,
		"Fig8KeyDistribution": true, "Fig9KeyDistributionSparse": true,
		"Fig10QueryLoad": true, "Fig11MassDeparture": true, "Fig12Churn": true,
		"Fig13Sparsity": true, "Fig14KoordeBreakdown": true,
		"AblationLeafSet": true, "AblationStabilization": true,
		"UngracefulFailures": true, "Lookup": true,
		"LookupInstrumented": true, "PutGet": true,
		"JoinLeave": true,
	}
	cases := bench.Cases()
	if len(cases) != len(want) {
		t.Fatalf("registry has %d cases, wrappers cover %d", len(cases), len(want))
	}
	for _, c := range cases {
		if !want[c.Name] {
			t.Errorf("registry case %q has no go test wrapper", c.Name)
		}
	}
}
