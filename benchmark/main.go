// Command benchmark is the repository's benchmark: it boots a 64-node
// overlay in-process, runs one workload in fixed-work windows bracketed
// by a host calibration, verifies every reply, and prints every metric
// by name with its unit. README.md in this directory gives the method.
//
//	bash benchmark/run.sh -workload lookup [-seed N] [-seconds S] [-trace 0|1]
//	bash benchmark/run.sh -workload all -repeat 10
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 12

// scratchDir holds the run's temporary root; the build wrapper keeps
// its caches there too. It is relative to the working directory, the
// root of the checkout.
const scratchDir = ".bench_build"

// outDir is where the trace file goes: benchmark/out from the root of
// the checkout, out when run from inside the benchmark directory.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "lookup, kv_mixed, blob_write or blob_read; with -repeat also a comma-separated list or all")
	seed := fs.Int64("seed", 1, "traffic seed: keys, origins and operations are generated from it")
	seconds := fs.Int("seconds", defaultSeconds, "nominal measuring time; converted to a count of fixed-work windows")
	trace := fs.Int("trace", 0, "1 adds the probes and the serial traced pass and reports the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run each selected workload this many times in fresh processes and report the spread")
	smoke := fs.Bool("smoke", false, "2 windows of 1/50 size: a functional check, not a measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if *repeat > 0 {
		return repeatMode(*workload, *seed, *seconds, *repeat, stdout, stderr)
	}
	w, err := workloadByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	rc := runConfig{w: w, seed: *seed, windows: windowsFor(*seconds), windowOps: w.windowOps}
	if *smoke {
		rc.windows, rc.windowOps = 2, w.windowOps/50
	}

	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rc.tmpRoot, err = os.MkdirTemp(scratchDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(rc.tmpRoot)
	// An interrupted run must not leave its data directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	finished := make(chan struct{})
	defer close(finished)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(rc.tmpRoot)
			os.Exit(130)
		case <-finished:
		}
	}()

	out, fp, err := invoke(rc, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	report(stdout, rc, out, fp, *trace == 1)
	if len(out.problems) > 0 {
		for _, p := range out.problems {
			fmt.Fprintln(stderr, "benchmark: incorrect:", p)
		}
		return 1
	}
	return 0
}

// windowsFor converts the nominal measuring time to a window count.
func windowsFor(seconds int) int {
	return max(minWindows, int(float64(seconds)/nominalWindowS+0.5))
}

// invoke performs one run: the timed windows and, when traced, the
// serial untraced windows on the same overlay, the probes, and the
// traced pass on a second overlay.
func invoke(rc runConfig, traced bool) (*outcome, fingerprint, error) {
	k, err := newKernel()
	if err != nil {
		return nil, fingerprint{}, err
	}
	defer k.close()
	out, b, err := timedRun(rc, k)
	if err != nil {
		return nil, fingerprint{}, err
	}
	defer b.fl.close()
	fp := hostFingerprint(rc.tmpRoot, out.layer["host.cal_ms"])

	var serialOpsS float64
	if traced {
		serialOpsS = opsPerSecond(serialPass(b, rc, "serial pass", out))
		if err := runProbes(b.fl, out.layer); err != nil {
			return nil, fp, err
		}
	}
	if rc.w.blob {
		if err := b.verifyBlobs(); err != nil {
			out.problem("%v", err)
		}
	}
	if err := b.fl.close(); err != nil {
		out.problem("closing the overlay: %v", err)
	}
	if traced {
		if err := tracedPass(rc, serialOpsS, out); err != nil {
			return nil, fp, err
		}
	}
	return out, fp, nil
}

// report prints the fingerprint, every metric computed, and last the
// result line the driver reads.
func report(w io.Writer, rc runConfig, out *outcome, fp fingerprint, traced bool) {
	fmt.Fprintf(w, "# workload=%s seed=%d windows=%d ops/window=%d clients=%d nodes=%d\n",
		rc.w.name, rc.seed, rc.windows, rc.windowOps, clients, fleetSize)
	host, _ := json.Marshal(fp)
	fmt.Fprintf(w, "# host %s\n", host)
	printed := func(defs []metricDef, vals metrics) map[string]resultMetric {
		res := make(map[string]resultMetric, len(defs))
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-32s %16.6g %s\n", d.name, v, d.unit)
			res[d.name] = resultMetric{Value: v, Unit: d.unit}
		}
		return res
	}
	e2e := printed(endToEnd, out.e2e)
	layer := printed(perLayer, out.layer)
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: e2e}
	if traced {
		res.Metrics = layer
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
