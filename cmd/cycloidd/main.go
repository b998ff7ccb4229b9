// Command cycloidd runs one live Cycloid node over TCP. Start the first
// node of an overlay with just a listen address; start every further node
// with -join pointing at any live member. The daemon also accepts simple
// client commands against a running overlay.
//
// Usage:
//
//	cycloidd -listen 127.0.0.1:4001                       # first node
//	cycloidd -listen 127.0.0.1:4002 -join 127.0.0.1:4001  # join overlay
//	cycloidd -listen 127.0.0.1:4003 -data-dir /var/lib/cycloid/n3  # durable node:
//	                                  # a restart replays the WAL and rejoins
//	cycloidd -join 127.0.0.1:4001 put greeting "hello"    # client put
//	cycloidd -join 127.0.0.1:4001 get greeting            # client get
//	cycloidd -join 127.0.0.1:4001 route greeting          # show the route
//
// Observability (see README "Observability"):
//
//	cycloidd -listen 127.0.0.1:4001 -metrics-addr 127.0.0.1:9001
//	cycloidd -listen 127.0.0.1:4001 -metrics-addr 127.0.0.1:9001 -pprof
//	cycloidd -listen 127.0.0.1:4001 -log-level debug
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cycloid/internal/telemetry"
	"cycloid/p2p"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP address to serve the overlay protocol on")
		join      = flag.String("join", "", "address of any live overlay member to join through")
		dim       = flag.Int("dim", 8, "Cycloid dimension d (all overlay members must agree)")
		stabilize = flag.Duration("stabilize", 30*time.Second, "periodic stabilization interval")
		replicas  = flag.Int("replicas", 1, "replication factor R: keys survive f < R simultaneous crashes (all overlay members must agree)")
		dataDir   = flag.String("data-dir", "", "durable store directory: WAL + snapshots live here, a restart replays them and rejoins (empty = in-memory store)")
		fsync     = flag.Bool("fsync", true, "with -data-dir, fsync the WAL before acknowledging a Put; -fsync=false trades crash durability for latency")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/spans on this HTTP address (empty = off)")
		pprofOn     = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on -metrics-addr")
		logLevel    = flag.String("log-level", "", "emit structured logs to stderr at this level: debug, info, warn or error (empty = off)")
		traceSample = flag.Float64("trace-sample", 0, "distributed-tracing sample probability in [0,1]; sampled and anomaly-forced span trees appear on /debug/spans (anomalies are always captured once > 0)")
		spanBuf     = flag.Int("span-buffer", 0, "completed spans retained for /debug/spans (0 = default 4096 when -trace-sample > 0, negative = off)")
	)
	flag.Parse()

	logger, err := buildLogger(*logLevel)
	if err != nil {
		fail(err)
	}

	reg := telemetry.NewRegistry("cycloid")
	node, err := p2p.Start(p2p.Config{
		Dim:            *dim,
		ListenAddr:     *listen,
		StabilizeEvery: *stabilize,
		Replicas:       *replicas,
		DataDir:        *dataDir,
		NoFsync:        !*fsync,
		Telemetry:      reg,
		Logger:         logger,
		TraceSample:    *traceSample,
		SpanBuffer:     *spanBuf,
	})
	if err != nil {
		fail(err)
	}

	if flag.NArg() > 0 {
		// Client mode: join, run one command, leave quietly.
		defer node.Close()
		if *join == "" {
			fail(fmt.Errorf("client commands need -join <member>"))
		}
		if err := node.Join(*join); err != nil {
			fail(err)
		}
		if err := runClient(node, flag.Args()); err != nil {
			fail(err)
		}
		if err := node.Leave(); err != nil && err != p2p.ErrStopped {
			fail(err)
		}
		return
	}

	// Daemon mode.
	if *join != "" {
		if err := node.Join(*join); err != nil {
			node.Close()
			fail(err)
		}
	}
	id := node.ID()
	fmt.Printf("cycloidd: node (%d,%0*b) serving on %s (dimension %d)\n",
		id.K, *dim, id.A, node.Addr(), *dim)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv, err = serveMetrics(*metricsAddr, node, *pprofOn)
		if err != nil {
			node.Close()
			fail(err)
		}
	} else if *pprofOn {
		node.Close()
		fail(fmt.Errorf("-pprof needs -metrics-addr"))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("cycloidd: leaving gracefully")
	if err := node.Leave(); err != nil && err != p2p.ErrStopped {
		fail(err)
	}
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := metricsSrv.Shutdown(ctx); err != nil {
			fail(err)
		}
	}
}

// buildLogger maps -log-level onto a stderr text slog.Logger; an empty
// level returns nil, which p2p replaces with a discard logger.
func buildLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// serveMetrics starts the introspection HTTP server: the node's metrics
// and spans via telemetry.Handler, plus net/http/pprof when requested.
// pprof is opt-in so a metrics port never exposes profiling by default.
func serveMetrics(addr string, node *p2p.Node, pprofOn bool) (*http.Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/", telemetry.Handler(node.Telemetry(), node.Spans()))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics server: %w", err)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go func() {
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "cycloidd: metrics server:", serr)
		}
	}()
	what := "metrics"
	if pprofOn {
		what = "metrics+pprof"
	}
	fmt.Printf("cycloidd: %s on http://%s\n", what, srv.Addr)
	return srv, nil
}

func runClient(node *p2p.Node, args []string) error {
	switch args[0] {
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		return node.Put(args[1], []byte(args[2]))
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		val, route, err := node.Get(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s\t(owner (%d,%d), %d hops)\n", val, route.Terminal.K, route.Terminal.A, route.Hops)
		return nil
	case "route":
		if len(args) != 2 {
			return fmt.Errorf("usage: route <key>")
		}
		route, err := node.Lookup(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("key %q -> node (%d,%d) at %s in %d hops (timeouts %d, phases %+v)\n",
			args[1], route.Terminal.K, route.Terminal.A, route.Addr, route.Hops, route.Timeouts, route.Phases)
		return nil
	default:
		return fmt.Errorf("unknown command %q (put, get, route)", args[0])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cycloidd:", err)
	os.Exit(1)
}
