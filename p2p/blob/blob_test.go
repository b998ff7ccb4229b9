package blob_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/p2p"
	"cycloid/p2p/blob"
	"cycloid/p2p/memnet"
	"cycloid/p2p/pool"
)

// clusterOpt tweaks the test cluster beyond the common shape.
type clusterOpt struct {
	replicas    int
	maxInflight int
	latency     time.Duration // applied to every link after boot
	dials       *dialCounter  // when set, counts every node's dials
}

// dialCounter counts dials per target address, fleet-wide.
type dialCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *dialCounter) to(addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[addr]
}

// countingTransport is a p2p.Transport that reports its dials.
type countingTransport struct {
	p2p.Transport
	c *dialCounter
}

func (t countingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	t.c.mu.Lock()
	if t.c.n == nil {
		t.c.n = make(map[string]int)
	}
	t.c.n[addr]++
	t.c.mu.Unlock()
	return t.Transport.Dial(addr, timeout)
}

// cluster boots n nodes through fleet.Boot on a seeded in-memory
// fabric with pooled connections, stabilized and closed via t.Cleanup.
func cluster(t *testing.T, n int, seed int64, opt clusterOpt) ([]*p2p.Node, *memnet.Network) {
	t.Helper()
	if opt.replicas == 0 {
		opt.replicas = 1
	}
	nw := memnet.New(seed)
	nodes, err := fleet.Boot(fleet.NewDealer(rand.New(rand.NewSource(seed)), ids.NewSpace(6)), nil, n,
		func(ord int, id ids.CycloidID) (*p2p.Node, error) {
			var tr p2p.Transport = nw.Host(fmt.Sprintf("n%d", ord))
			if opt.dials != nil {
				tr = countingTransport{Transport: tr, c: opt.dials}
			}
			return p2p.Start(p2p.Config{
				Dim:         6,
				ID:          &id,
				DialTimeout: 2 * time.Second,
				Transport:   tr,
				Replicas:    opt.replicas,
				MaxInflight: opt.maxInflight,
			})
		})
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.SetDefaultLatency(opt.latency)
	fleet.Stabilize(nodes, 3)
	return nodes, nw
}

// payload builds n deterministic, position-dependent bytes.
func payload(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// TestBlobRoundTrip writes blobs of awkward sizes from one node and
// reads them back in full from another: empty, sub-chunk, exact
// multiple, and a ragged tail.
func TestBlobRoundTrip(t *testing.T) {
	nodes, _ := cluster(t, 6, 1, clusterOpt{})
	const chunk = 512
	w, err := blob.New(nodes[0], blob.Options{ChunkSize: chunk, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := blob.New(nodes[3], blob.Options{ChunkSize: chunk, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, size := range []int{0, 1, chunk - 1, chunk, 3 * chunk, 3*chunk + 7} {
		name := fmt.Sprintf("rt-%d", i)
		want := payload(int64(i), size)
		if err := w.Put(ctx, name, want); err != nil {
			t.Fatalf("put %q (%d bytes): %v", name, size, err)
		}
		got, err := r.Get(ctx, name)
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("blob %q: %d bytes read, want %d, mismatch", name, len(got), len(want))
		}
		m, err := r.Manifest(ctx, name)
		if err != nil {
			t.Fatalf("manifest %q: %v", name, err)
		}
		if m.Gen != 1 || m.Size != int64(size) || m.ChunkSize != chunk {
			t.Fatalf("manifest %q: gen=%d size=%d chunkSize=%d", name, m.Gen, m.Size, m.ChunkSize)
		}
	}
	if _, err := r.Get(ctx, "rt-missing"); !errors.Is(err, p2p.ErrNotFound) {
		t.Fatalf("missing blob: err = %v, want ErrNotFound", err)
	}
}

// TestBlobRangeRead exercises ReadAt: within one chunk, across chunk
// boundaries, the ragged tail, and past the end.
func TestBlobRangeRead(t *testing.T) {
	nodes, _ := cluster(t, 5, 2, clusterOpt{})
	s, err := blob.New(nodes[1], blob.Options{ChunkSize: 256, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := payload(7, 256*4+99)
	if err := s.Put(ctx, "range", want); err != nil {
		t.Fatal(err)
	}
	rd, err := s.Open(ctx, "range")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Size() != int64(len(want)) {
		t.Fatalf("Size() = %d, want %d", rd.Size(), len(want))
	}
	for _, c := range []struct{ off, n int }{
		{0, 16},            // head of chunk 0
		{100, 200},         // crosses chunk 0 -> 1
		{256 * 2, 256},     // exactly chunk 2
		{256*3 + 10, 300},  // chunk 3 into the ragged tail
		{len(want) - 5, 5}, // the very end
	} {
		buf := make([]byte, c.n)
		n, err := rd.ReadAt(buf, int64(c.off))
		if err != nil || n != c.n {
			t.Fatalf("ReadAt(%d, %d) = %d, %v", c.off, c.n, n, err)
		}
		if !bytes.Equal(buf, want[c.off:c.off+c.n]) {
			t.Fatalf("ReadAt(%d, %d) content mismatch", c.off, c.n)
		}
	}
	// Past the end: a short read with io.EOF.
	buf := make([]byte, 64)
	n, err := rd.ReadAt(buf, int64(len(want)-10))
	if n != 10 || err != io.EOF {
		t.Fatalf("ReadAt past end = %d, %v; want 10, io.EOF", n, err)
	}
}

// TestBlobStreamRead consumes a blob strictly sequentially through the
// io.Reader face with a small consumer buffer, so the prefetch window
// stays ahead of the reads.
func TestBlobStreamRead(t *testing.T) {
	nodes, _ := cluster(t, 6, 1, clusterOpt{})
	s, err := blob.New(nodes[2], blob.Options{ChunkSize: 128, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := payload(11, 128*9+55)
	if err := s.Put(ctx, "stream", want); err != nil {
		t.Fatal(err)
	}
	rd, err := s.Open(ctx, "stream")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var got bytes.Buffer
	if _, err := io.CopyBuffer(&got, onlyReader{rd}, make([]byte, 37)); err != nil {
		t.Fatalf("streaming read: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed %d bytes, want %d, mismatch", got.Len(), len(want))
	}
}

// onlyReader hides every interface but io.Reader so io.CopyBuffer
// cannot shortcut through ReadFrom/WriteTo.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// TestBlobOverwriteAndGC rewrites a blob and asserts the commit
// semantics: the new generation is what every subsequent read observes,
// the manifest generation advances, and a straggling reader of the
// replaced generation hits ErrStale — garbage collection tombstoned its
// chunks — rather than silent corruption.
func TestBlobOverwriteAndGC(t *testing.T) {
	nodes, _ := cluster(t, 5, 1, clusterOpt{})
	s, err := blob.New(nodes[0], blob.Options{ChunkSize: 64, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v1 := payload(1, 64*4)
	v2 := payload(2, 64*3+9)
	if err := s.Put(ctx, "gc", v1); err != nil {
		t.Fatal(err)
	}

	// A window-1 reader consumes chunk 0 of generation 1, then stalls
	// while the blob is rewritten underneath it.
	rd, err := s.Open(ctx, "gc")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	head := make([]byte, 64)
	if _, err := io.ReadFull(rd, head); err != nil {
		t.Fatalf("reading chunk 0 of gen 1: %v", err)
	}
	if !bytes.Equal(head, v1[:64]) {
		t.Fatal("chunk 0 of gen 1 mismatch")
	}

	if err := s.Put(ctx, "gc", v2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	m, err := s.Manifest(ctx, "gc")
	if err != nil {
		t.Fatal(err)
	}
	if m.Gen != 2 {
		t.Fatalf("manifest generation = %d after rewrite, want 2", m.Gen)
	}
	got, err := s.Get(ctx, "gc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Fatal("read after rewrite returned a torn or stale blob")
	}

	// The straggler's next chunk was garbage-collected: typed staleness,
	// never a silent wrong read, and never an integrity failure.
	if _, err := io.ReadFull(rd, head); !errors.Is(err, blob.ErrStale) {
		t.Fatalf("stale reader error = %v, want ErrStale", err)
	}
	if n := nodes[0].Telemetry().CounterValue("cycloid_blob_integrity_failures_total"); n != 0 {
		t.Fatalf("GC race counted as %d integrity failures; want 0", n)
	}
}

// TestBlobChunkSizeValidation is the construction-time frame-fit check:
// a chunk size the node's wire-frame cap cannot carry (after envelope
// overhead) fails fast with the typed error, instead of surfacing as a
// wire error on the first Put, and a chunk at the reported ceiling
// really does cross the wire.
func TestBlobChunkSizeValidation(t *testing.T) {
	nodes, _ := cluster(t, 4, 1, clusterOpt{})
	nd := nodes[0]
	_, err := blob.New(nd, blob.Options{ChunkSize: nd.MaxFrame()})
	var cse *blob.ChunkSizeError
	if !errors.As(err, &cse) {
		t.Fatalf("oversized chunk: err = %v, want *ChunkSizeError", err)
	}
	if cse.MaxFrame != nd.MaxFrame() || cse.MaxChunk <= 0 || cse.MaxChunk >= nd.MaxFrame() {
		t.Fatalf("ChunkSizeError fields: %+v", cse)
	}
	// The reported ceiling is tight: exactly MaxChunk constructs, and a
	// full chunk of that size is stored and read back through the
	// other node.
	s, err := blob.New(nd, blob.Options{ChunkSize: cse.MaxChunk})
	if err != nil {
		t.Fatalf("chunk size at the reported ceiling rejected: %v", err)
	}
	want := bytes.Repeat([]byte{0xa5}, cse.MaxChunk)
	if err := s.Put(context.Background(), "ceiling", want); err != nil {
		t.Fatalf("Put of one ceiling-sized chunk: %v", err)
	}
	other, err := blob.New(nodes[1], blob.Options{ChunkSize: cse.MaxChunk})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := other.Get(context.Background(), "ceiling"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get of one ceiling-sized chunk: %d bytes, %v", len(got), err)
	}
	if _, err := blob.New(nd, blob.Options{ChunkSize: cse.MaxChunk + 1}); err == nil {
		t.Fatal("chunk size just past the reported ceiling accepted")
	}
	// Degenerate options are rejected too.
	if _, err := blob.New(nd, blob.Options{ChunkSize: -1}); err == nil {
		t.Fatal("negative chunk size accepted")
	}
	if _, err := blob.New(nd, blob.Options{Window: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestBlobCrashReplicaFallback kills a node ungracefully and asserts a
// replicated blob still reads back in full from the survivors — the
// KV's replica fallback underneath every chunk Get.
func TestBlobCrashReplicaFallback(t *testing.T) {
	nodes, _ := cluster(t, 6, 3, clusterOpt{replicas: 2})
	s, err := blob.New(nodes[0], blob.Options{ChunkSize: 200, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := payload(5, 200*8+13)
	if err := s.Put(ctx, "survive", want); err != nil {
		t.Fatal(err)
	}

	nodes[3].Close() // ungraceful: no leave notifications
	for r := 0; r < 3; r++ {
		for i, nd := range nodes {
			if i != 3 {
				nd.Stabilize()
			}
		}
	}

	s2, err := blob.New(nodes[5], blob.Options{ChunkSize: 200, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(ctx, "survive")
	if err != nil {
		t.Fatalf("read after crash: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("blob corrupted after crash")
	}
}

// gaugeValue reads a gauge off a node's registry; registration is
// lookup-or-create, so this resolves the live instrument.
func gaugeValue(nd *p2p.Node, name string) int64 {
	return nd.Telemetry().Gauge(name, "").Value()
}

// TestBlobReaderShutdownLeavesNothingInFlight closes readers mid-stream
// — both via Close and via context cancellation — while fabric latency
// keeps a full prefetch window of chunk Gets in flight, then asserts
// everything drains: the prefetch-depth gauge, every node's
// admission_inflight gauge, and the connection pool's in-flight count
// all return to zero. Run under -race this also shakes out unsynchronized
// reader teardown.
func TestBlobReaderShutdownLeavesNothingInFlight(t *testing.T) {
	nodes, _ := cluster(t, 5, 9, clusterOpt{
		replicas:    2,
		maxInflight: 8,
		latency:     5 * time.Millisecond,
	})
	s, err := blob.New(nodes[0], blob.Options{ChunkSize: 128, Window: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(3, 128*40)
	if err := s.Put(context.Background(), "teardown", want); err != nil {
		t.Fatal(err)
	}

	drained := func() error {
		for i, nd := range nodes {
			if v := gaugeValue(nd, "blob_prefetch_depth"); v != 0 {
				return fmt.Errorf("n%d: blob_prefetch_depth = %d", i, v)
			}
			if v := gaugeValue(nd, "admission_inflight"); v != 0 {
				return fmt.Errorf("n%d: admission_inflight = %d", i, v)
			}
			if st := nd.PoolStats(); st.Inflight != 0 {
				return fmt.Errorf("n%d: pool inflight = %d", i, st.Inflight)
			}
		}
		return nil
	}
	waitDrained := func(t *testing.T) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var last error
		for time.Now().Before(deadline) {
			if last = drained(); last == nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("in-flight work never drained: %v", last)
	}

	t.Run("close", func(t *testing.T) {
		rd, err := s.Open(context.Background(), "teardown")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if _, err := rd.Read(buf); err != nil { // fills the prefetch window
			t.Fatal(err)
		}
		if err := rd.Close(); err != nil {
			t.Fatal(err)
		}
		waitDrained(t)
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		rd, err := s.Open(ctx, "teardown")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if _, err := rd.Read(buf); err != nil {
			t.Fatal(err)
		}
		cancel()
		// Reads after cancellation fail rather than hang.
		for {
			if _, err := rd.Read(buf); err != nil {
				if errors.Is(err, io.EOF) {
					t.Fatal("canceled reader reached EOF")
				}
				break
			}
		}
		rd.Close()
		waitDrained(t)
	})
}

// fleetCounter sums one counter over the live nodes.
func fleetCounter(nodes []*p2p.Node, name string) uint64 {
	var sum uint64
	for _, nd := range nodes {
		sum += nd.Telemetry().CounterValue(name)
	}
	return sum
}

// TestBlobStaleHints covers the three ways a manifest owner hint goes
// stale — its node crashed, left, or never held the chunk. In each the
// read returns the exact bytes through the routed fallback, counting
// hint misses but no lookup timeout; a hint found dead is suspected
// and not dialed again; and a rewrite still lands every tombstone of
// the replaced generation, the stale-hinted ones via the fallback.
func TestBlobStaleHints(t *testing.T) {
	const (
		chunk   = 128
		name    = "stale"
		timeout = "cycloid_lookup_timeouts_total"
		misses  = "cycloid_blob_hint_misses_total"
	)
	for _, tc := range []struct {
		name string
		// stale makes some hints of m stale and returns the node they
		// now name, plus whether that node is gone.
		stale func(t *testing.T, nodes []*p2p.Node, m *blob.Manifest) (*p2p.Node, bool)
	}{
		{"crashed", func(t *testing.T, nodes []*p2p.Node, m *blob.Manifest) (*p2p.Node, bool) {
			victim := hintedNode(t, nodes, m)
			victim.Close()
			return victim, true
		}},
		{"left", func(t *testing.T, nodes []*p2p.Node, m *blob.Manifest) (*p2p.Node, bool) {
			victim := hintedNode(t, nodes, m)
			if err := victim.Leave(); err != nil {
				t.Fatal(err)
			}
			return victim, true
		}},
		{"no-copy", func(t *testing.T, nodes []*p2p.Node, m *blob.Manifest) (*p2p.Node, bool) {
			// Re-commit the manifest with every hint at a live node that
			// holds none of the blob's chunks.
			for _, nd := range nodes[2:] {
				held := false
				for _, k := range nd.Keys() {
					held = held || strings.HasPrefix(k, "blob:c:")
				}
				if !held {
					for i := range m.Hints {
						m.Hints[i] = nd.Addr()
					}
					if err := nodes[0].Put("blob:m:"+name, m.Encode()); err != nil {
						t.Fatal(err)
					}
					return nd, false
				}
			}
			t.Fatal("every node holds a chunk")
			return nil, false
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dials := &dialCounter{}
			nodes, _ := cluster(t, 10, 4, clusterOpt{replicas: 3, dials: dials})
			ctx := context.Background()
			w, err := blob.New(nodes[0], blob.Options{ChunkSize: chunk, Window: 4})
			if err != nil {
				t.Fatal(err)
			}
			r, err := blob.New(nodes[1], blob.Options{ChunkSize: chunk, Window: 4})
			if err != nil {
				t.Fatal(err)
			}
			v1 := payload(11, chunk*2+5)
			if err := w.Put(ctx, name, v1); err != nil {
				t.Fatal(err)
			}
			m, err := w.Manifest(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			stale, gone := tc.stale(t, nodes, m)
			var live []*p2p.Node
			for _, nd := range nodes {
				if nd != stale || !gone {
					live = append(live, nd)
				}
			}
			if gone {
				for i := 0; i < 3; i++ {
					for _, nd := range live {
						nd.Stabilize()
					}
				}
			}
			staleHints := 0
			for _, h := range m.Hints {
				if h == stale.Addr() {
					staleHints++
				}
			}

			timeouts := fleetCounter(live, timeout)
			missed := fleetCounter(live, misses)
			got, err := r.Get(ctx, name)
			if err != nil || !bytes.Equal(got, v1) {
				t.Fatalf("read through stale hints: %v (equal=%v)", err, bytes.Equal(got, v1))
			}
			if d := fleetCounter(live, misses) - missed; d < uint64(staleHints) {
				t.Fatalf("%d stale hints counted %d misses", staleHints, d)
			}

			// A hint found dead is suspected: the next read skips it.
			before := dials.to(stale.Addr())
			if got, err = r.Get(ctx, name); err != nil || !bytes.Equal(got, v1) {
				t.Fatalf("second read: %v", err)
			}
			if d := dials.to(stale.Addr()) - before; gone && d != 0 {
				t.Fatalf("the dead hint %s was dialed %d more times", stale.Addr(), d)
			}

			// Rewrite: every tombstone of generation 1 lands, so a
			// straggler reading it sees ErrStale on every chunk.
			old, err := r.Open(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			defer old.Close()
			v2 := payload(12, chunk*3)
			if err := w.Put(ctx, name, v2); err != nil {
				t.Fatal(err)
			}
			for seq := 0; seq < old.Manifest().Count(); seq++ {
				if _, err := old.ReadAt(make([]byte, 1), int64(seq*chunk)); !errors.Is(err, blob.ErrStale) {
					t.Fatalf("generation-1 chunk %d after rewrite: err = %v, want ErrStale", seq, err)
				}
			}
			if got, err = r.Get(ctx, name); err != nil || !bytes.Equal(got, v2) {
				t.Fatalf("read after rewrite: %v", err)
			}
			if d := fleetCounter(live, timeout) - timeouts; d != 0 {
				t.Fatalf("stale hints advanced %s by %d", timeout, d)
			}
		})
	}
}

// hintedNode returns a node, other than the writer and reader (nodes 0
// and 1), that the manifest names as some chunk's owner.
func hintedNode(t *testing.T, nodes []*p2p.Node, m *blob.Manifest) *p2p.Node {
	t.Helper()
	for _, h := range m.Hints {
		for _, nd := range nodes[2:] {
			if nd.Addr() == h {
				return nd
			}
		}
	}
	t.Fatalf("no chunk hinted at a node other than writer and reader: %v", m.Hints)
	return nil
}

// Interface sanity: PoolStats carries the in-flight count the teardown
// test reads.
var _ = pool.Stats{}.Inflight
