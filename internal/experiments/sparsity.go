package experiments

import (
	"fmt"
	"math/rand"

	"cycloid/internal/overlay"
	"cycloid/internal/stats"
	"cycloid/internal/workload"
)

// SparsityOptions parameterizes the Section 4.5 experiment: location
// efficiency as a function of how much of the ID space is unoccupied.
type SparsityOptions struct {
	// Space is the identifier-space size, 2048 in the paper.
	Space uint64
	// Sparsities are the fractions of non-existent nodes, default 0..0.9.
	Sparsities []float64
	// Lookups per configuration, 10,000 in the paper.
	Lookups int
	Seed    int64
	DHTs    []string
}

func (o *SparsityOptions) defaults() {
	if o.Space == 0 {
		o.Space = 2048
	}
	if len(o.Sparsities) == 0 {
		o.Sparsities = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	if o.Lookups == 0 {
		o.Lookups = 10000
	}
	if len(o.DHTs) == 0 {
		o.DHTs = DHTNames
	}
}

// SparsityCell is the measurement for one (DHT, sparsity) pair.
type SparsityCell struct {
	DHT       string
	Sparsity  float64
	Nodes     int
	MeanPath  float64
	PhaseMean map[string]float64
	Failures  int
}

// SparsityResult carries the sweep of Figures 13 and 14.
type SparsityResult struct {
	Sparsities []float64
	Cells      map[string][]SparsityCell
}

// RunSparsity reproduces Figure 13 (mean path length vs. ID-space
// sparsity) and Figure 14 (Koorde's hop breakdown vs. sparsity).
func RunSparsity(o SparsityOptions) (*SparsityResult, error) {
	o.defaults()
	res := &SparsityResult{Sparsities: o.Sparsities, Cells: make(map[string][]SparsityCell)}
	for _, name := range o.DHTs {
		res.Cells[name] = make([]SparsityCell, len(o.Sparsities))
	}
	type job struct {
		si   int
		name string
	}
	var jobs []job
	for si := range o.Sparsities {
		for _, name := range o.DHTs {
			jobs = append(jobs, job{si, name})
		}
	}
	err := parallelDo(len(jobs), func(i int) error {
		j := jobs[i]
		s := o.Sparsities[j.si]
		n := int(float64(o.Space) * (1 - s))
		if n < 2 {
			n = 2
		}
		net, err := BuildIn(j.name, o.Space, n, o.Seed+int64(s*100)+hashName(j.name))
		if err != nil {
			return fmt.Errorf("build %s at sparsity %.1f: %w", j.name, s, err)
		}
		rng := rand.New(rand.NewSource(o.Seed + int64(s*1000)))
		cell := SparsityCell{DHT: j.name, Sparsity: s, Nodes: n, PhaseMean: make(map[string]float64)}
		var paths stats.Sample
		phase := make(map[overlay.Phase]int)
		done := 0
		workload.RandomPairs(net, o.Lookups, rng, func(l workload.Lookup) {
			r := net.Lookup(l.Src, l.Key)
			if r.Failed {
				cell.Failures++
				return
			}
			paths.AddInt(r.PathLength())
			for _, h := range r.Hops {
				phase[h.Phase]++
			}
			done++
		})
		cell.MeanPath = paths.Mean()
		if done > 0 {
			for p, c := range phase {
				cell.PhaseMean[p.String()] = float64(c) / float64(done)
			}
		}
		res.Cells[j.name][j.si] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig13Table renders mean path length versus sparsity.
func (r *SparsityResult) Fig13Table() Table {
	names := dhtsIn(r.Cells)
	t := Table{
		Caption: "Figure 13: mean lookup path length vs. degree of ID-space sparsity",
		Header:  append([]string{"sparsity"}, names...),
	}
	for i, s := range r.Sparsities {
		row := []string{f2(s)}
		for _, name := range names {
			row = append(row, f2(r.Cells[name][i].MeanPath))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig14Table renders Koorde's de Bruijn/successor breakdown vs. sparsity.
func (r *SparsityResult) Fig14Table() Table {
	t := Table{
		Caption: "Figure 14: Koorde path breakdown vs. sparsity (mean hops per lookup)",
		Header:  []string{"sparsity", "debruijn", "successor", "successor share"},
	}
	for _, c := range r.Cells["koorde"] {
		deb, succ := c.PhaseMean["debruijn"], c.PhaseMean["successor"]
		share := 0.0
		if deb+succ > 0 {
			share = succ / (deb + succ)
		}
		t.Rows = append(t.Rows, []string{f2(c.Sparsity), f2(deb), f2(succ), fmt.Sprintf("%.0f%%", share*100)})
	}
	return t
}
