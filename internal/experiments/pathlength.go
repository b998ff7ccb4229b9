package experiments

import (
	"fmt"
	"math/rand"

	"cycloid/internal/overlay"
	"cycloid/internal/stats"
	"cycloid/internal/workload"
)

// PathLengthOptions parameterizes the Figure 5/6/7 experiment.
type PathLengthOptions struct {
	// Dims are the Cycloid dimensions to sweep; each yields n = d*2^d
	// nodes for every DHT. Default 3..8, the paper's range.
	Dims []int
	// LookupBudget caps the total lookups per (DHT, size) pair. The paper
	// issues n/4 lookups per node (n^2/4 total); the default budget of
	// 200,000 keeps the d=8 sweep fast while leaving means within a
	// fraction of a percent. Set 0 for the paper's exact workload.
	LookupBudget int
	Seed         int64
	// DHTs defaults to DHTNames.
	DHTs []string
}

func (o *PathLengthOptions) defaults() {
	if len(o.Dims) == 0 {
		o.Dims = []int{3, 4, 5, 6, 7, 8}
	}
	if o.LookupBudget == 0 {
		o.LookupBudget = 200000
	}
	if len(o.DHTs) == 0 {
		o.DHTs = DHTNames
	}
}

// PathLengthCell is the measurement for one (DHT, size) pair.
type PathLengthCell struct {
	DHT      string
	Dim      int
	Nodes    int
	Lookups  int
	MeanPath float64
	// PhaseMean maps a phase label to its mean hops per lookup, the
	// Figure 7 breakdown.
	PhaseMean map[string]float64
	Failures  int
}

// PathLengthResult carries the full sweep.
type PathLengthResult struct {
	Dims  []int
	Cells map[string][]PathLengthCell // DHT -> cell per dim
}

// RunPathLength measures mean lookup path lengths across network sizes
// (Figures 5 and 6) with per-phase breakdowns (Figure 7). Every node
// issues lookups to uniformly random keys. Cells — one DHT at one
// dimension — are independent and run in parallel.
func RunPathLength(o PathLengthOptions) (*PathLengthResult, error) {
	o.defaults()
	res := &PathLengthResult{Dims: o.Dims, Cells: make(map[string][]PathLengthCell)}
	for _, name := range o.DHTs {
		res.Cells[name] = make([]PathLengthCell, len(o.Dims))
	}
	type job struct {
		di   int
		name string
	}
	var jobs []job
	for di := range o.Dims {
		for _, name := range o.DHTs {
			jobs = append(jobs, job{di, name})
		}
	}
	err := parallelDo(len(jobs), func(i int) error {
		j := jobs[i]
		d := o.Dims[j.di]
		n := d << uint(d)
		net, err := Build(j.name, n, o.Seed+int64(d)*101)
		if err != nil {
			return fmt.Errorf("build %s at d=%d: %w", j.name, d, err)
		}
		res.Cells[j.name][j.di] = measurePaths(net, d, o.lookupsPerNode(n), o.Seed+int64(d))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (o PathLengthOptions) lookupsPerNode(n int) int {
	per := n / 4
	if per < 1 {
		per = 1
	}
	if o.LookupBudget > 0 && per*n > o.LookupBudget {
		per = o.LookupBudget / n
		if per < 1 {
			per = 1
		}
	}
	return per
}

func measurePaths(net Churner, dim, perNode int, seed int64) PathLengthCell {
	rng := rand.New(rand.NewSource(seed))
	cell := PathLengthCell{
		DHT:       net.Name(),
		Dim:       dim,
		Nodes:     net.Size(),
		PhaseMean: make(map[string]float64),
	}
	var paths stats.Sample
	phase := make(map[overlay.Phase]int)
	workload.PerNode(net, perNode, rng, func(l workload.Lookup) {
		r := net.Lookup(l.Src, l.Key)
		if r.Failed {
			cell.Failures++
			return
		}
		paths.AddInt(r.PathLength())
		for _, h := range r.Hops {
			phase[h.Phase]++
		}
		cell.Lookups++
	})
	cell.MeanPath = paths.Mean()
	if cell.Lookups > 0 {
		for p, c := range phase {
			cell.PhaseMean[p.String()] = float64(c) / float64(cell.Lookups)
		}
	}
	return cell
}

// Fig5Table renders mean path length versus network size.
func (r *PathLengthResult) Fig5Table() Table {
	t := Table{
		Caption: "Figure 5: mean lookup path length vs. network size (n = d*2^d)",
		Header:  append([]string{"n"}, dhtsIn(r.Cells)...),
	}
	for i, d := range r.Dims {
		row := []string{fmt.Sprintf("%d", d<<uint(d))}
		for _, name := range dhtsIn(r.Cells) {
			row = append(row, f2(r.Cells[name][i].MeanPath))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6Table renders mean path length versus dimension.
func (r *PathLengthResult) Fig6Table() Table {
	t := Table{
		Caption: "Figure 6: mean lookup path length vs. network dimension",
		Header:  append([]string{"d"}, dhtsIn(r.Cells)...),
	}
	for i, d := range r.Dims {
		row := []string{fmt.Sprintf("%d", d)}
		for _, name := range dhtsIn(r.Cells) {
			row = append(row, f2(r.Cells[name][i].MeanPath))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7Table renders the per-phase breakdown for one DHT.
func (r *PathLengthResult) Fig7Table(dht string) Table {
	cells := r.Cells[dht]
	phases := phaseOrder(dht)
	t := Table{
		Caption: fmt.Sprintf("Figure 7: path length breakdown for %s (mean hops per lookup)", dht),
		Header:  append([]string{"n"}, phases...),
	}
	for _, c := range cells {
		row := []string{fmt.Sprintf("%d", c.Nodes)}
		for _, p := range phases {
			row = append(row, f2(c.PhaseMean[p]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// phaseOrder returns the phase labels a DHT's lookups use.
func phaseOrder(dht string) []string {
	switch dht {
	case "koorde":
		return []string{"debruijn", "successor"}
	case "chord":
		return []string{"finger", "successor"}
	default:
		return []string{"ascending", "descending", "traverse"}
	}
}
