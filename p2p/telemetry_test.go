package p2p

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
	"cycloid/p2p/codec"
	"cycloid/p2p/memnet"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// gateTransport wraps a Transport and, once armed, lets one address
// carry a fixed number of further request writes, then fails every
// write and dial to it — a node that dies mid-operation,
// deterministically, whether the calls ride a pooled connection or a
// fresh dial.
type gateTransport struct {
	inner Transport

	mu      sync.Mutex
	blocked string
	allow   int
}

func (g *gateTransport) Listen(addr string) (net.Listener, error) { return g.inner.Listen(addr) }

func (g *gateTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	if !g.pass(addr, false) {
		return nil, fmt.Errorf("gate: %s blocked", addr)
	}
	c, err := g.inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g, addr: addr}, nil
}

// pass reports whether a dial (spend false) or a request write (spend
// true) to addr may proceed, spending one allowance for a write.
func (g *gateTransport) pass(addr string, spend bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.blocked != addr {
		return true
	}
	if g.allow <= 0 {
		return false
	}
	if spend {
		g.allow--
	}
	return true
}

// arm starts failing traffic to addr after the next allow request
// writes.
func (g *gateTransport) arm(addr string, allow int) {
	g.mu.Lock()
	g.blocked, g.allow = addr, allow
	g.mu.Unlock()
}

// gatedConn charges each request write to its gate. The handshake
// preamble is free, so a redial does not spend a request's allowance.
type gatedConn struct {
	net.Conn
	g    *gateTransport
	addr string
}

func (c *gatedConn) Write(b []byte) (int, error) {
	if !bytes.HasPrefix(b, []byte(codec.PreambleMuxV2)) && !c.g.pass(c.addr, true) {
		c.Conn.Close()
		return 0, fmt.Errorf("gate: %s blocked", c.addr)
	}
	return c.Conn.Write(b)
}

// TestGetTimeoutSingleCharge pins the Route.Timeouts accounting fix: an
// owner that dies between route and fetch must cost the read exactly one
// timeout. Before the fix the read charged the fetch failure, then the
// re-route demoted the one-strike corpse to pass 1, dialed it again, and
// charged a second timeout for the same death.
func TestGetTimeoutSingleCharge(t *testing.T) {
	nw := memnet.New(77)
	dim := 5
	space := ids.NewSpace(dim)

	ownerCfg := memConfig(nw, "owner", dim, ids.CycloidID{K: 2, A: 9})
	ownerCfg.Replicas = 2
	owner, err := Start(ownerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()

	readerGate := &gateTransport{inner: nw.Host("reader")}
	readerCfg := Config{
		Dim:         dim,
		ID:          &ids.CycloidID{K: 1, A: 20},
		DialTimeout: 200 * time.Millisecond,
		Transport:   readerGate,
		Replicas:    2,
	}
	reader, err := Start(readerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if err := reader.Join(owner.Addr()); err != nil {
		t.Fatal(err)
	}
	fleet.Stabilize([]*Node{owner, reader}, 3)

	// A key owned by the owner node, replicated onto the reader.
	key := ""
	for i := 0; i < 1024; i++ {
		k := fmt.Sprintf("k%d", i)
		if space.Closer(owner.keyPoint(k), owner.id, reader.id) {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by the owner node")
	}
	if err := owner.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.localFetch(key, nil); !ok {
		t.Fatal("reader holds no replica after Put")
	}
	if got := reader.peer(owner.Addr()).strikes; got != 0 {
		t.Fatalf("reader already has %d strikes on the owner", got)
	}

	// Let the route's single step through, then kill the owner for the
	// fetch and everything after it.
	readerGate.arm(owner.Addr(), 1)

	before := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	v, r, err := reader.Get(key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(v) != "v" {
		t.Fatalf("Get = %q, want %q", v, "v")
	}
	if r.Timeouts != 1 {
		t.Fatalf("owner death charged %d timeouts, want exactly 1", r.Timeouts)
	}
	after := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	if delta := after - before; delta != uint64(r.Timeouts) {
		t.Fatalf("lookup_timeouts_total moved by %d, Route.Timeouts = %d; accounting diverged", delta, r.Timeouts)
	}
}

// TestMetricsGolden pins the full Prometheus exposition of a fresh node
// — every metric family, its HELP/TYPE lines, label sets and bucket
// layouts — against testdata/metrics.golden. Run with -update to accept
// intentional changes.
func TestMetricsGolden(t *testing.T) {
	nw := memnet.New(1)
	cfg := memConfig(nw, "golden", 6, ids.CycloidID{K: 3, A: 21})
	cfg.Replicas = 2
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	var buf bytes.Buffer
	if err := nd.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(buf.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from %s (re-run with -update if intentional):\n--- got ---\n%s", golden, buf.String())
	}
}

// TestMetricsScrapeUnderChurn hammers one node's scrape endpoints and
// span buffer while the overlay underneath it serves writes, reads, a
// crash and stabilization — the race detector proves scraping never
// tears instrument state and span collection never races recording.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	nw := memnet.New(13)
	nodes := memCluster(t, nw, 6, 8, 13, func(ord int, cfg *Config) {
		cfg.Replicas = 2
		if ord == 0 {
			cfg.TraceSample = 1
		}
	})
	target := nodes[0]

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := target.Telemetry().WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			if err := telemetry.Lint(buf.Bytes()); err != nil {
				t.Errorf("mid-churn exposition fails lint: %v", err)
				return
			}
			buf.Reset()
			if err := target.Telemetry().WriteJSON(&buf); err != nil {
				t.Errorf("WriteJSON: %v", err)
				return
			}
			_ = telemetry.BuildTrees(target.Spans().Snapshot())
		}
	}()

	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("churn%d", i)
		if err := target.Put(key, []byte{byte(i)}); err != nil {
			t.Logf("put %s: %v", key, err)
		}
		if _, _, err := nodes[1].Get(key); err != nil {
			t.Logf("get %s: %v", key, err)
		}
		if i == 10 {
			nodes[len(nodes)-1].Close() // ungraceful crash mid-run
		}
		if i%7 == 0 {
			target.Stabilize()
		}
	}
	close(done)
	wg.Wait()
}

// TestRouteMetricsMatchRoutes drives a batch of reads against a cluster
// with a crashed member and requires the reader's timeout counter to
// move by exactly the sum of the returned routes' Timeouts fields — the
// invariant the chaos harness asserts continuously.
func TestRouteMetricsMatchRoutes(t *testing.T) {
	nw := memnet.New(29)
	nodes := memCluster(t, nw, 6, 10, 29, func(_ int, c *Config) { c.Replicas = 3 })
	for i := 0; i < 12; i++ {
		if err := nodes[i%len(nodes)].Put(fmt.Sprintf("mm%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	nodes[len(nodes)-1].Close() // corpse to generate timeouts

	reader := nodes[0]
	before := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	sum, failed := 0, 0
	for i := 0; i < 12; i++ {
		// A read may legitimately fail before stabilization repairs the
		// tables; even then the returned route's timeout accounting must
		// match the counter movement.
		_, r, err := reader.Get(fmt.Sprintf("mm%d", i))
		if err != nil {
			failed++
		}
		sum += r.Timeouts
	}
	if failed == 12 {
		t.Fatal("every read failed; cluster never converged")
	}
	after := reader.Telemetry().CounterValue("cycloid_lookup_timeouts_total")
	if delta := after - before; delta != uint64(sum) {
		t.Fatalf("lookup_timeouts_total moved by %d, routes reported %d", delta, sum)
	}
}
