package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method),
// which is what the acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worsening is how far b is worse than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// repeatMode runs every selected workload n times, each run a fresh
// process with its own seed, alternating the workload order from one
// round to the next. It reports each end-to-end metric's median,
// quartiles and spreads, the medians of the two interleaved halves (even
// and odd rounds), and whether both stay within the metric's bound.
func repeatMode(selection string, seed int64, seconds, n int, stdout, stderr io.Writer) int {
	var ws []*spec
	if selection == "all" {
		ws = workloads
	} else {
		for _, name := range strings.Split(selection, ",") {
			w, err := workloadByName(name)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
			ws = append(ws, w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> per round
	for _, w := range ws {
		values[w.name] = make(map[string][]float64)
	}
	for round := 0; round < n; round++ {
		order := slices.Clone(ws)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			res, err := runChild(self, w.name, seed+int64(round), seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: round %d of %s: %v\n", round, w.name, err)
				return 1
			}
			for name, v := range res {
				values[w.name][name] = append(values[w.name][name], v)
			}
			fmt.Fprintf(stderr, "round %d %s ops_s=%.6g\n", round, w.name, res["ops_s"])
		}
	}

	status := 0
	for _, w := range ws {
		fmt.Fprintf(stdout, "\n%s: %d runs, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
		fmt.Fprintf(stdout, "%-20s %12s %12s %12s %9s %9s %12s %12s %8s %6s\n",
			"metric", "median", "q1", "q3", "iqr/med", "range/med", "median even", "median odd", "drift", "")
		for _, d := range endToEnd {
			xs := values[w.name][d.name]
			var even, odd []float64
			for i, x := range xs {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			q1, q2, q3 := quartiles(xs)
			iqr, rng := spreads(xs)
			drift := max(worsening(d, median(even), median(odd)), worsening(d, median(odd), median(even)))
			verdict := "PASS"
			// The spread of setup_s is reported but not judged, as in
			// the acceptance check; its medians are.
			if (d.name != "setup_s" && iqr > d.bound) || (len(odd) > 0 && drift > d.bound) {
				verdict = "FAIL"
				status = 1
			}
			fmt.Fprintf(stdout, "%-20s %12.6g %12.6g %12.6g %9.4f %9.4f %12.6g %12.6g %8.4f %6s\n",
				d.name, q2, q1, q3, iqr, rng, median(even), median(odd), drift, verdict)
		}
		// What normalising bought: the same runs' raw readings beside
		// the normalised ones.
		fmt.Fprintf(stdout, "%-20s %9s %9s   %-26s %9s %9s\n", "normalised", "iqr/med", "range/med", "raw", "iqr/med", "range/med")
		for _, pair := range [][2]string{
			{"setup_s", "client.setup_s_raw"}, {"ops_s", "client.ops_s_raw"}, {"p50_us", "client.p50_us_raw"},
			{"p90_us", "client.p90_us_raw"}, {"cpu_us_per_op", "client.cpu_us_per_op_raw"},
		} {
			ni, nr := spreads(values[w.name][pair[0]])
			ri, rr := spreads(values[w.name][pair[1]])
			fmt.Fprintf(stdout, "%-20s %9.4f %9.4f   %-26s %9.4f %9.4f\n", pair[0], ni, nr, pair[1], ri, rr)
		}
	}
	return status
}

// spreads returns the interquartile range and the full range of xs, each
// as a share of the median.
func spreads(xs []float64) (iqr, rng float64) {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2), ratio(slices.Max(xs)-slices.Min(xs), q2)
}

// runChild runs one workload once in a child process and returns every
// metric it printed: the end-to-end ones from the result line, with all
// their digits, and the per-layer ones a plain run computes from the
// table above it. The child's report is shown only when it fails.
func runChild(self, workload string, seed int64, seconds int, stderr io.Writer) (metrics, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		stderr.Write(out.Bytes())
		return nil, err
	}
	vals := metrics{}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}
