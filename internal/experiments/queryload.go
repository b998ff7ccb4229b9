package experiments

import (
	"fmt"
	"math/rand"

	"cycloid/internal/stats"
	"cycloid/internal/workload"
)

// QueryLoadOptions parameterizes the Figure 10 experiment: how evenly
// lookup traffic (messages received on behalf of other nodes' requests)
// spreads over the participants.
type QueryLoadOptions struct {
	// Sizes are the network sizes, {64, 2048} in the paper.
	Sizes []int
	// LookupBudget caps total lookups per network as in PathLengthOptions.
	LookupBudget int
	Seed         int64
	DHTs         []string
}

func (o *QueryLoadOptions) defaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{64, 2048}
	}
	if o.LookupBudget == 0 {
		o.LookupBudget = 200000
	}
	if len(o.DHTs) == 0 {
		o.DHTs = DHTNames
	}
}

// QueryLoadResult holds per-(DHT, size) query-load summaries.
type QueryLoadResult struct {
	Sizes   []int
	Summary map[string][]stats.Summary
}

// RunQueryLoad has every node issue lookups to random keys and counts,
// for each node, the messages it receives for other nodes' requests.
func RunQueryLoad(o QueryLoadOptions) (*QueryLoadResult, error) {
	o.defaults()
	res := &QueryLoadResult{Sizes: o.Sizes, Summary: make(map[string][]stats.Summary)}
	for _, n := range o.Sizes {
		perNode := n / 4
		if perNode < 1 {
			perNode = 1
		}
		if perNode*n > o.LookupBudget {
			perNode = o.LookupBudget / n
			if perNode < 1 {
				perNode = 1
			}
		}
		for _, name := range o.DHTs {
			net, err := Build(name, n, o.Seed+int64(n)*7+hashName(name))
			if err != nil {
				return nil, fmt.Errorf("build %s at n=%d: %w", name, n, err)
			}
			rng := rand.New(rand.NewSource(o.Seed + int64(n)))
			load := stats.NewCounter()
			workload.PerNode(net, perNode, rng, func(l workload.Lookup) {
				r := net.Lookup(l.Src, l.Key)
				for _, h := range r.Hops {
					if h.To != l.Src {
						load.Inc(h.To, 1)
					}
				}
			})
			res.Summary[name] = append(res.Summary[name], load.Sample(net.NodeIDs()).Summarize())
		}
	}
	return res, nil
}

// Table renders the query-load summaries, Figure 10 style.
func (r *QueryLoadResult) Table() Table {
	names := dhtsIn(r.Summary)
	t := Table{
		Caption: "Figure 10: query load per node, mean (1st pct, 99th pct)",
		Header:  append([]string{"n"}, names...),
	}
	for i, n := range r.Sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, name := range names {
			s := r.Summary[name][i]
			row = append(row, summaryCell(s.Mean, s.P1, s.P99))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
