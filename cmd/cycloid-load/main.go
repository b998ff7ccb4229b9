// Command cycloid-load boots a live Cycloid overlay in-process and
// drives a sustained Put/Get/Lookup workload against it, reporting
// throughput, latency quantiles (p50/p95/p99), error counts, and the
// per-node query-load table that reproduces the paper's query-balance
// experiment (Figures 8–10) on the live p2p stack rather than the
// simulator.
//
// Two drivers: closed-loop (-concurrency N: a fixed number of
// outstanding operations) and open-loop (-rate R: a fixed arrival rate
// in ops/s, modelling independent clients). Key popularity is uniform
// or Zipf (-zipf s, s > 1).
//
// Every operation is recorded in a history, and at the end of the run
// the history is checked against the consistency model in DESIGN.md:
// a wrong answer (a lost acked write, a value never written, a version
// regression) exits 1. Failed operations are counted as errors and left
// to -max-error-rate.
//
// By default the overlay runs on the deterministic in-memory fabric
// (p2p/memnet), so a fixed -seed yields an identical operation schedule
// and query-load table across runs:
//
//	cycloid-load -nodes 16 -ops 2000 -mix 1:4:5 -zipf 1.2
//	cycloid-load -nodes 16 -rate 500 -ops 1000 -json
//	cycloid-load -transport tcp -nodes 8                 # loopback TCP
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/internal/loadgen"
	"cycloid/p2p"
	"cycloid/p2p/memnet"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 16, "overlay size")
		dim         = flag.Int("dim", 6, "Cycloid dimension d")
		seed        = flag.Int64("seed", 42, "seed for fabric, membership and workload")
		transport   = flag.String("transport", "memnet", "transport fabric: memnet (deterministic) or tcp (loopback)")
		replicas    = flag.Int("replicas", 1, "replication factor R")
		mix         = flag.String("mix", "0:0:1", "put:get:lookup weights, or \"streaming\" for the chunked-blob viewer mix")
		keys        = flag.Int("keys", 64, "distinct key population")
		zipf        = flag.Float64("zipf", 0, "Zipf key-popularity skew s (> 1); 0 = uniform")
		ops         = flag.Int("ops", 2000, "measured operations")
		concurrency = flag.Int("concurrency", 8, "closed-loop outstanding operations")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in ops/s (0 = closed-loop)")
		dialTimeout = flag.Duration("dial-timeout", 2*time.Second, "per-contact timeout")
		jsonOut     = flag.Bool("json", false, "emit the report as JSON")
		maxErrRate  = flag.Float64("max-error-rate", -1, "exit nonzero if errors/ops exceeds this (negative = no check)")
		maxP99      = flag.Duration("max-p99", 0, "exit nonzero if p99 latency exceeds this (0 = no check)")
		traceSample = flag.Float64("trace-sample", 0, "distributed-tracing sample probability in [0,1]; sampled latency outliers appear as trace exemplars in the report")

		// Streaming-mix knobs (-mix streaming); see loadgen.Streaming.
		blobs      = flag.Int("blobs", 8, "streaming: distinct blob population")
		blobChunks = flag.Int("blob-chunks", 16, "streaming: chunks per blob")
		chunkSize  = flag.Int("chunk-size", 8<<10, "streaming: chunk payload bytes")
		window     = flag.Int("stream-window", 4, "streaming: reader prefetch window")
		bitrate    = flag.Int("bitrate", 0, "streaming: viewer playout bitrate in KiB/s (0 = unpaced, no deadlines)")
		sessions   = flag.Int("sessions", 64, "streaming: viewer sessions to play")
	)
	flag.Parse()

	cluster, cleanup, err := boot(*transport, *nodes, *dim, *seed, *replicas, *dialTimeout, *traceSample)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cycloid-load:", err)
		os.Exit(1)
	}
	defer cleanup()

	lcfg := loadgen.Config{
		Nodes:       cluster,
		Keys:        *keys,
		Zipf:        *zipf,
		Seed:        *seed,
		Ops:         *ops,
		Concurrency: *concurrency,
		Rate:        *rate,
	}
	if *mix == "streaming" {
		lcfg.Streaming = &loadgen.Streaming{
			Blobs:       *blobs,
			BlobChunks:  *blobChunks,
			ChunkSize:   *chunkSize,
			Window:      *window,
			BitrateKBps: *bitrate,
			Sessions:    *sessions,
		}
	} else {
		m, err := parseMix(*mix)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cycloid-load:", err)
			os.Exit(1)
		}
		lcfg.Mix = m
	}
	// The overlay is booted and stabilized, and nothing faults it: every
	// operation is settled, so the check below holds every answer the
	// run got to the strict rules of the consistency model.
	h := new(loadgen.History)
	h.Barrier()
	rep, err := loadgen.Start(h, lcfg)()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cycloid-load:", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "cycloid-load:", err)
			os.Exit(1)
		}
	} else {
		rep.Format(os.Stdout)
	}

	var wrong []loadgen.Violation
	for _, v := range h.Check(0) {
		if !v.Failed() {
			wrong = append(wrong, v)
		}
	}
	if len(wrong) > 0 {
		fmt.Fprintf(os.Stderr, "cycloid-load: %d consistency violations over %d history records:\n", len(wrong), h.Len())
		for _, v := range wrong {
			fmt.Fprintln(os.Stderr, " ", v)
		}
		os.Exit(1)
	}
	if *maxErrRate >= 0 && float64(rep.Errors) > *maxErrRate*float64(rep.Ops) {
		fmt.Fprintf(os.Stderr, "cycloid-load: error rate %d/%d exceeds %.3f\n", rep.Errors, rep.Ops, *maxErrRate)
		os.Exit(2)
	}
	if *maxP99 > 0 && time.Duration(rep.P99)*time.Microsecond > *maxP99 {
		fmt.Fprintf(os.Stderr, "cycloid-load: p99 %dµs exceeds %v\n", rep.P99, *maxP99)
		os.Exit(2)
	}
}

// boot brings up an n-node overlay on the chosen fabric through
// fleet.Boot, joined and stabilized.
func boot(transport string, n, dim int, seed int64, replicas int, dialTimeout time.Duration, traceSample float64) ([]*p2p.Node, func(), error) {
	var nw *memnet.Network
	switch transport {
	case "memnet":
		nw = memnet.New(seed)
	case "tcp":
	default:
		return nil, nil, fmt.Errorf("unknown transport %q (memnet or tcp)", transport)
	}
	nodes, err := fleet.Boot(fleet.NewDealer(rand.New(rand.NewSource(seed)), ids.NewSpace(dim)), nil, n,
		func(ord int, id ids.CycloidID) (*p2p.Node, error) {
			cfg := p2p.Config{
				Dim:         dim,
				ID:          &id,
				DialTimeout: dialTimeout,
				Replicas:    replicas,
				TraceSample: traceSample,
			}
			if traceSample > 0 {
				cfg.SpanBuffer = 1 << 14
			}
			if nw != nil {
				cfg.Transport = nw.Host(fmt.Sprintf("n%d", ord))
			}
			return p2p.Start(cfg)
		})
	cleanup := func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	fleet.Stabilize(nodes, 3)
	return nodes, cleanup, nil
}

// parseMix parses "put:get:lookup" weights, e.g. "1:4:5".
func parseMix(s string) (loadgen.Mix, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return loadgen.Mix{}, fmt.Errorf("mix %q: want put:get:lookup weights", s)
	}
	var w [3]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &w[i]); err != nil {
			return loadgen.Mix{}, fmt.Errorf("mix %q: %w", s, err)
		}
		if w[i] < 0 {
			return loadgen.Mix{}, fmt.Errorf("mix %q: negative weight", s)
		}
	}
	m := loadgen.Mix{Put: w[0], Get: w[1], Lookup: w[2]}
	if m.Put+m.Get+m.Lookup == 0 {
		return loadgen.Mix{}, fmt.Errorf("mix %q: all weights zero", s)
	}
	return m, nil
}
