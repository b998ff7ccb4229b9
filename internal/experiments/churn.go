package experiments

import (
	"fmt"
	"math/rand"

	"cycloid/internal/overlay"
	"cycloid/internal/sim"
	"cycloid/internal/stats"
)

// ChurnOptions parameterizes the Section 4.4 experiment: lookups during
// continuous joins and voluntary leaves with periodic stabilization, the
// protocol of the Chord paper's dynamic evaluation.
type ChurnOptions struct {
	// Nodes is the starting size, 2048 in the paper.
	Nodes int
	// Rates are the join/leave rates R in events per second; each rate
	// drives an independent join process and an independent leave process.
	// Default 0.05..0.40 step 0.05.
	Rates []float64
	// LookupRate is the Poisson lookup rate, 1/s in the paper.
	LookupRate float64
	// Lookups is how many lookups to observe before stopping, 10,000 in
	// the paper.
	Lookups int
	// StabilizeEvery is the per-node stabilization period, 30s in the
	// paper; each node's timer is uniformly staggered within the period.
	StabilizeEvery float64
	Seed           int64
	DHTs           []string
}

func (o *ChurnOptions) defaults() {
	if o.Nodes == 0 {
		o.Nodes = 2048
	}
	if len(o.Rates) == 0 {
		o.Rates = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}
	}
	if o.LookupRate == 0 {
		o.LookupRate = 1
	}
	if o.Lookups == 0 {
		o.Lookups = 10000
	}
	if o.StabilizeEvery == 0 {
		o.StabilizeEvery = 30
	}
	if len(o.DHTs) == 0 {
		o.DHTs = DHTNames
	}
}

// ChurnCell is the measurement for one (DHT, rate) pair.
type ChurnCell struct {
	DHT      string
	Rate     float64
	MeanPath float64
	Timeouts stats.Summary
	Failures int
	Joins    int
	Leaves   int
	Lookups  int
}

// ChurnResult carries the sweep of Figure 12 and Table 5.
type ChurnResult struct {
	Rates []float64
	Cells map[string][]ChurnCell
}

// RunChurn reproduces Figure 12 and Table 5 with the discrete-event
// kernel: joins and leaves arrive as independent Poisson processes at
// rate R, lookups at 1/s, and every node stabilizes once per period at
// its own uniformly staggered offset.
func RunChurn(o ChurnOptions) (*ChurnResult, error) {
	o.defaults()
	res := &ChurnResult{Rates: o.Rates, Cells: make(map[string][]ChurnCell)}
	for _, name := range o.DHTs {
		res.Cells[name] = make([]ChurnCell, len(o.Rates))
	}
	type job struct {
		ri   int
		name string
	}
	var jobs []job
	for ri := range o.Rates {
		for _, name := range o.DHTs {
			jobs = append(jobs, job{ri, name})
		}
	}
	err := parallelDo(len(jobs), func(i int) error {
		j := jobs[i]
		cell, err := runChurnOne(j.name, o.Rates[j.ri], o)
		if err != nil {
			return err
		}
		res.Cells[j.name][j.ri] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runChurnOne(name string, rate float64, o ChurnOptions) (ChurnCell, error) {
	net, err := Build(name, o.Nodes, o.Seed+hashName(name))
	if err != nil {
		return ChurnCell{}, fmt.Errorf("build %s: %w", name, err)
	}
	rng := rand.New(rand.NewSource(o.Seed + int64(rate*10000) + hashName(name)))
	eng := sim.NewEngine()
	cell := ChurnCell{DHT: name, Rate: rate}
	var paths stats.Sample
	var touts stats.Sample

	// Per-node stabilization timers, uniformly staggered.
	var scheduleStabilize func(id uint64, first bool)
	scheduleStabilize = func(id uint64, first bool) {
		delay := sim.Time(o.StabilizeEvery)
		if first {
			delay = sim.Time(rng.Float64() * o.StabilizeEvery)
		}
		eng.After(delay, func(sim.Time) {
			// A departed node's timer dies silently.
			if !net.Contains(id) {
				return
			}
			net.Stabilize(id)
			scheduleStabilize(id, false)
		})
	}
	for _, id := range net.NodeIDs() {
		scheduleStabilize(id, true)
	}

	// Lookup process.
	sim.NewPoisson(o.LookupRate, rng).Recur(eng, func(sim.Time) {
		if cell.Lookups >= o.Lookups {
			eng.Halt()
			return
		}
		r := net.Lookup(overlay.RandomNode(net, rng), overlay.RandomKey(net, rng))
		paths.AddInt(r.PathLength())
		touts.AddInt(r.Timeouts)
		if r.Failed {
			cell.Failures++
		}
		cell.Lookups++
	})

	// Join and leave processes at rate R each.
	sim.NewPoisson(rate, rng).Recur(eng, func(sim.Time) {
		id, err := net.Join(rng)
		if err != nil {
			return // ID space momentarily full; skip this arrival
		}
		cell.Joins++
		scheduleStabilize(id, true)
	})
	sim.NewPoisson(rate, rng).Recur(eng, func(sim.Time) {
		if net.Size() <= 2 {
			return
		}
		if err := net.Leave(overlay.RandomNode(net, rng)); err == nil {
			cell.Leaves++
		}
	})

	horizon := sim.Time(float64(o.Lookups)/o.LookupRate*4 + 1000)
	eng.Run(horizon)

	cell.MeanPath = paths.Mean()
	cell.Timeouts = touts.Summarize()
	return cell, nil
}

// Fig12Table renders mean path length versus churn rate.
func (r *ChurnResult) Fig12Table() Table {
	names := dhtsIn(r.Cells)
	t := Table{
		Caption: "Figure 12: mean lookup path length vs. node join/leave rate (events/s)",
		Header:  append([]string{"R"}, names...),
	}
	for i, rate := range r.Rates {
		row := []string{f2(rate)}
		for _, name := range names {
			row = append(row, f2(r.Cells[name][i].MeanPath))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table5 renders timeouts per lookup under churn.
func (r *ChurnResult) Table5() Table {
	names := dhtsIn(r.Cells)
	t := Table{
		Caption: "Table 5: timeouts per lookup under churn, mean (1st pct, 99th pct)",
		Header:  append([]string{"R"}, names...),
	}
	for i, rate := range r.Rates {
		row := []string{f2(rate)}
		for _, name := range names {
			s := r.Cells[name][i].Timeouts
			row = append(row, fmt.Sprintf("%.3f (%.0f, %.0f)", s.Mean, s.P1, s.P99))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
