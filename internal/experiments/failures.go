package experiments

import (
	"fmt"
	"math/rand"

	"cycloid/internal/stats"
	"cycloid/internal/workload"
)

// FailureOptions parameterizes the Section 4.3 experiment: massive
// simultaneous graceful departures without stabilization.
type FailureOptions struct {
	// Nodes is the starting size, 2048 in the paper.
	Nodes int
	// Probs is the departure-probability sweep, default 0.1..0.5.
	Probs []float64
	// Lookups after the departures, 10,000 in the paper.
	Lookups int
	Seed    int64
	DHTs    []string
}

func (o *FailureOptions) defaults() {
	if o.Nodes == 0 {
		o.Nodes = 2048
	}
	if len(o.Probs) == 0 {
		o.Probs = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if o.Lookups == 0 {
		o.Lookups = 10000
	}
	if len(o.DHTs) == 0 {
		o.DHTs = DHTNames
	}
}

// FailureCell is the measurement for one (DHT, p) pair.
type FailureCell struct {
	DHT      string
	Prob     float64
	Departed int
	MeanPath float64
	Timeouts stats.Summary
	Failures int
	Lookups  int
}

// FailureResult carries the sweep of Figure 11 and Table 4.
type FailureResult struct {
	Probs []float64
	Cells map[string][]FailureCell
}

// RunFailures reproduces Figure 11 and Table 4: each node departs
// gracefully with probability p (leaf sets / successor lists repaired by
// the departure protocol, routing tables left stale), then random lookups
// measure path lengths, timeouts, and failures. No stabilization runs.
func RunFailures(o FailureOptions) (*FailureResult, error) {
	o.defaults()
	res := &FailureResult{Probs: o.Probs, Cells: make(map[string][]FailureCell)}
	for _, name := range o.DHTs {
		res.Cells[name] = make([]FailureCell, len(o.Probs))
	}
	type job struct {
		pi   int
		name string
	}
	var jobs []job
	for pi := range o.Probs {
		for _, name := range o.DHTs {
			jobs = append(jobs, job{pi, name})
		}
	}
	err := parallelDo(len(jobs), func(i int) error {
		j := jobs[i]
		p := o.Probs[j.pi]
		net, err := Build(j.name, o.Nodes, o.Seed+hashName(j.name))
		if err != nil {
			return fmt.Errorf("build %s: %w", j.name, err)
		}
		rng := rand.New(rand.NewSource(o.Seed + int64(p*1000)))
		departing := workload.FailureSample(net.NodeIDs(), p, rng)
		for _, id := range departing {
			if err := net.Leave(id); err != nil {
				return fmt.Errorf("%s leave: %w", j.name, err)
			}
		}
		cell := FailureCell{DHT: j.name, Prob: p, Departed: len(departing), Lookups: o.Lookups}
		var paths stats.Sample
		var touts stats.Sample
		workload.RandomPairs(net, o.Lookups, rng, func(l workload.Lookup) {
			r := net.Lookup(l.Src, l.Key)
			paths.AddInt(r.PathLength())
			touts.AddInt(r.Timeouts)
			if r.Failed {
				cell.Failures++
			}
		})
		cell.MeanPath = paths.Mean()
		cell.Timeouts = touts.Summarize()
		res.Cells[j.name][j.pi] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig11Table renders mean path length versus departure probability.
func (r *FailureResult) Fig11Table() Table {
	names := dhtsIn(r.Cells)
	t := Table{
		Caption: "Figure 11: mean lookup path length vs. node departure probability",
		Header:  append([]string{"p"}, names...),
	}
	for i, p := range r.Probs {
		row := []string{f2(p)}
		for _, name := range names {
			row = append(row, f2(r.Cells[name][i].MeanPath))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table4 renders timeouts per lookup (mean with 1st/99th percentiles).
func (r *FailureResult) Table4() Table {
	names := dhtsIn(r.Cells)
	t := Table{
		Caption: "Table 4: timeouts per lookup as nodes depart, mean (1st pct, 99th pct)",
		Header:  append([]string{"p"}, names...),
	}
	for i, p := range r.Probs {
		row := []string{f2(p)}
		for _, name := range names {
			s := r.Cells[name][i].Timeouts
			row = append(row, summaryCell(s.Mean, s.P1, s.P99))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// FailureCountTable renders lookup failures per DHT, the Koorde failure
// counts Section 4.3 discusses.
func (r *FailureResult) FailureCountTable() Table {
	names := dhtsIn(r.Cells)
	t := Table{
		Caption: fmt.Sprintf("Section 4.3: failed lookups out of %d", r.Cells[names[0]][0].Lookups),
		Header:  append([]string{"p"}, names...),
	}
	for i, p := range r.Probs {
		row := []string{f2(p)}
		for _, name := range names {
			row = append(row, fmt.Sprintf("%d", r.Cells[name][i].Failures))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
