// Command cycloid-bench regenerates the tables and figures of the paper's
// evaluation (Section 4). Each experiment id corresponds to one table or
// figure; -exp all runs everything.
//
// Usage:
//
//	cycloid-bench -list
//	cycloid-bench -exp fig5
//	cycloid-bench -exp all -quick
//	cycloid-bench -exp fig11 -seed 7 -lookups 5000
//	cycloid-bench -exp fig12 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cycloid/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id to run (see -list), or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		seed    = flag.Int64("seed", 1, "random seed; identical seeds reproduce identical tables")
		quick   = flag.Bool("quick", false, "shrink workloads ~10x for a fast smoke run")
		lookups = flag.Int("lookups", 0, "override the experiment's lookup count (0 = default)")
		format  = flag.String("format", "table", "output format: table, csv, or plot (ASCII chart)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}()

	reg := experiments.Registry()
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-24s %s\n", id, reg[id].Description)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := experiments.RunConfig{Seed: *seed, Quick: *quick, Lookups: *lookups, Format: *format}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		r, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
			os.Exit(2)
		}
		start := time.Now()
		fmt.Printf("== %s: %s ==\n", r.ID, r.Description)
		if err := r.Run(os.Stdout, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}
}
