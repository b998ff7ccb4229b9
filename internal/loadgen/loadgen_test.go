package loadgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/p2p"
	"cycloid/p2p/memnet"
)

// cluster boots n nodes through fleet.Boot on a fresh seeded memnet
// fabric — the deterministic stack the load generator's determinism
// contract is stated against.
func cluster(t *testing.T, fabricSeed int64, dim, n int) []*p2p.Node {
	t.Helper()
	nw := memnet.New(fabricSeed)
	nodes, err := fleet.Boot(fleet.NewDealer(rand.New(rand.NewSource(fabricSeed)), ids.NewSpace(dim)), nil, n,
		func(ord int, id ids.CycloidID) (*p2p.Node, error) {
			return p2p.Start(p2p.Config{
				Dim:         dim,
				ID:          &id,
				DialTimeout: time.Second,
				Transport:   nw.Host(fmt.Sprintf("n%d", ord)),
			})
		})
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Stabilize(nodes, 3)
	return nodes
}

func TestClosedLoopRunsCleanOnMemnet(t *testing.T) {
	nodes := cluster(t, 42, 6, 12)
	rep, err := Run(Config{
		Nodes:       nodes,
		Mix:         Mix{Put: 1, Get: 2, Lookup: 2},
		Keys:        32,
		Seed:        7,
		Ops:         400,
		Concurrency: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 400 {
		t.Errorf("ops = %d, want 400", rep.Ops)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d on a clean fabric", rep.Errors)
	}
	if rep.Mode != "closed" {
		t.Errorf("mode = %q", rep.Mode)
	}
	if len(rep.Load) != len(nodes) {
		t.Errorf("load table has %d rows, want %d", len(rep.Load), len(nodes))
	}
	var total uint64
	for _, l := range rep.Load {
		total += l.Total
	}
	if total == 0 {
		t.Error("query-load table recorded no served requests")
	}
	if rep.LoadBalance.Mean <= 0 || rep.LoadBalance.Max < rep.LoadBalance.Min {
		t.Errorf("balance stats inconsistent: %+v", rep.LoadBalance)
	}
	if rep.Throughput <= 0 || rep.P50 < 0 || rep.P99 < rep.P50 {
		t.Errorf("SLO stats inconsistent: throughput=%v p50=%d p99=%d", rep.Throughput, rep.P50, rep.P99)
	}
}

func TestOpenLoopRuns(t *testing.T) {
	nodes := cluster(t, 5, 5, 6)
	rep, err := Run(Config{
		Nodes: nodes,
		Mix:   Mix{Lookup: 1},
		Keys:  16,
		Seed:  3,
		Ops:   200,
		Rate:  5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Mode)
	}
	if rep.Ops != 200 || rep.Errors != 0 {
		t.Errorf("ops=%d errors=%d", rep.Ops, rep.Errors)
	}
}

// TestDeterministicReportOnMemnet is the acceptance criterion: two runs
// on identically seeded fabrics with the same workload seed produce the
// same deterministic report fields — operation outcomes and the full
// per-node query-load table. Wall-clock fields are zeroed before
// comparison.
func TestDeterministicReportOnMemnet(t *testing.T) {
	deterministic := func(rep *Report) *Report {
		c := *rep
		c.Duration, c.Throughput, c.P50, c.P95, c.P99 = 0, 0, 0, 0, 0
		c.PerOp = map[string]OpStats{}
		for k, s := range rep.PerOp {
			s.P50, s.P95, s.P99 = 0, 0, 0
			c.PerOp[k] = s
		}
		return &c
	}
	run := func() *Report {
		nodes := cluster(t, 99, 6, 10)
		rep, err := Run(Config{
			Nodes:       nodes,
			Mix:         Mix{Put: 1, Get: 1, Lookup: 3},
			Keys:        48,
			Zipf:        1.3,
			Seed:        11,
			Ops:         300,
			Concurrency: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return deterministic(rep)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reports differ across identically seeded runs:\n%+v\n%+v", a, b)
	}
}

func TestZipfSkewsLoadTowardHotKeys(t *testing.T) {
	nodes := cluster(t, 17, 6, 10)
	uni, err := Run(Config{Nodes: nodes, Mix: Mix{Get: 1}, Keys: 64, Seed: 5, Ops: 400, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	zip, err := Run(Config{Nodes: nodes, Mix: Mix{Get: 1}, Keys: 64, Zipf: 2.0, Seed: 5, Ops: 400, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Zipf concentrates fetches on the hot keys' owners: the busiest
	// node must carry a larger share than under uniform popularity.
	share := func(r *Report) float64 {
		var total, max uint64
		for _, l := range r.Load {
			total += l.Fetches
			if l.Fetches > max {
				max = l.Fetches
			}
		}
		if total == 0 {
			t.Fatal("no fetches recorded")
		}
		return float64(max) / float64(total)
	}
	if su, sz := share(uni), share(zip); sz <= su {
		t.Errorf("zipf max-share %.3f not above uniform %.3f", sz, su)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	nodes := cluster(t, 1, 5, 3)
	if _, err := Run(Config{Nodes: nodes, Zipf: 0.5}); err == nil || !strings.Contains(err.Error(), "zipf") {
		t.Errorf("zipf in (0,1] accepted: %v", err)
	}
}

func TestReportFormat(t *testing.T) {
	nodes := cluster(t, 23, 5, 4)
	rep, err := Run(Config{Nodes: nodes, Mix: Mix{Put: 1, Lookup: 1}, Keys: 8, Seed: 2, Ops: 50, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	for _, want := range []string{"load report:", "throughput", "p50=", "query load per node", "balance: min="} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}
