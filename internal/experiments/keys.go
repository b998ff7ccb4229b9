package experiments

import (
	"fmt"

	"cycloid/internal/stats"
	"cycloid/internal/workload"
)

// KeyDistributionOptions parameterizes the Figure 8/9 experiment: how
// evenly each DHT's placement rule spreads hashed keys over the nodes.
type KeyDistributionOptions struct {
	// Nodes is the number of participants (2000 for Figure 8, 1000 for
	// the sparse Figure 9).
	Nodes int
	// Space is the identifier-space size, 2048 in the paper.
	Space uint64
	// KeyCounts are the total-keys sweep, default 10^4..10^5 step 10^4.
	KeyCounts []int
	Seed      int64
	DHTs      []string
}

func (o *KeyDistributionOptions) defaults() {
	if o.Nodes == 0 {
		o.Nodes = 2000
	}
	if o.Space == 0 {
		o.Space = 2048
	}
	if len(o.KeyCounts) == 0 {
		for k := 10000; k <= 100000; k += 10000 {
			o.KeyCounts = append(o.KeyCounts, k)
		}
	}
	if len(o.DHTs) == 0 {
		o.DHTs = DHTNames
	}
}

// KeyDistributionResult holds per-(DHT, keycount) load summaries.
type KeyDistributionResult struct {
	Nodes     int
	KeyCounts []int
	Summary   map[string][]stats.Summary // DHT -> summary per key count
}

// RunKeyDistribution assigns hashed keys to nodes under each DHT's
// placement rule and summarizes keys-per-node (mean, 1st and 99th
// percentiles), reproducing Figures 8 and 9.
func RunKeyDistribution(o KeyDistributionOptions) (*KeyDistributionResult, error) {
	o.defaults()
	res := &KeyDistributionResult{
		Nodes:     o.Nodes,
		KeyCounts: o.KeyCounts,
		Summary:   make(map[string][]stats.Summary),
	}
	for _, name := range o.DHTs {
		net, err := BuildIn(name, o.Space, o.Nodes, o.Seed+hashName(name))
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		maxKeys := o.KeyCounts[len(o.KeyCounts)-1]
		keys := workload.Keys(maxKeys, net.KeySpace())
		counter := stats.NewCounter()
		prev := 0
		for _, kc := range o.KeyCounts {
			for _, key := range keys[prev:kc] {
				counter.Inc(net.Responsible(key), 1)
			}
			prev = kc
			res.Summary[name] = append(res.Summary[name], counter.Sample(net.NodeIDs()).Summarize())
		}
	}
	return res, nil
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ int64(s[i])) * 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h % 100000
}

// Table renders keys-per-node summaries, Figure 8/9 style.
func (r *KeyDistributionResult) Table(caption string) Table {
	names := dhtsIn(r.Summary)
	t := Table{
		Caption: fmt.Sprintf("%s: keys per node, mean (1st pct, 99th pct); %d nodes", caption, r.Nodes),
		Header:  append([]string{"keys"}, names...),
	}
	for i, kc := range r.KeyCounts {
		row := []string{fmt.Sprintf("%d", kc)}
		for _, name := range names {
			s := r.Summary[name][i]
			row = append(row, summaryCell(s.Mean, s.P1, s.P99))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
