package p2p

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/memnet"
	"cycloid/p2p/pool"
)

// pooledMemConfig is memConfig with the pooled transport switched on.
func pooledMemConfig(nw *memnet.Network, name string, dim int, id ids.CycloidID) Config {
	cfg := memConfig(nw, name, dim, id)
	cfg.PooledTransport = true
	return cfg
}

// pooledMemCluster boots n pooled-transport nodes on one fabric; each
// mut, if any, adjusts every node's config before it starts.
func pooledMemCluster(t *testing.T, nw *memnet.Network, dim, n int, seed int64, mut ...func(*Config)) []*Node {
	t.Helper()
	space := ids.NewSpace(dim)
	rng := rand.New(rand.NewSource(seed))
	taken := make(map[uint64]bool)
	nodes := make([]*Node, 0, n)
	for len(nodes) < n {
		v := uint64(rng.Int63n(int64(space.Size())))
		if taken[v] {
			continue
		}
		taken[v] = true
		cfg := pooledMemConfig(nw, fmt.Sprintf("p%d", len(nodes)), dim, space.FromLinear(v))
		for _, m := range mut {
			m(&cfg)
		}
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) > 0 {
			if err := nd.Join(nodes[rng.Intn(len(nodes))].Addr()); err != nil {
				t.Fatalf("node %v join: %v", nd.ID(), err)
			}
		}
		nodes = append(nodes, nd)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// TestPooledTransportLookups runs the basic overlay workload — joins,
// puts, exact lookups, gets — entirely over pooled connections, and
// checks the pool is actually carrying the traffic (reuses recorded,
// dials bounded) rather than silently falling back to dial-per-request.
func TestPooledTransportLookups(t *testing.T) {
	nw := memnet.New(7)
	nodes := pooledMemCluster(t, nw, 6, 10, 3)
	stabilizeAll(nodes, 2)
	space := nodes[0].space

	const items = 40
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("pooled-%d", i)
		if err := nodes[i%len(nodes)].Put(key, []byte{byte(i)}); err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
	}
	for i := 0; i < items; i++ {
		key := fmt.Sprintf("pooled-%d", i)
		want := bruteOwner(space, nodes, nodes[0].keyPoint(key))
		for _, from := range nodes {
			r, err := from.Lookup(key)
			if err != nil {
				t.Fatalf("lookup %q from %v: %v", key, from.ID(), err)
			}
			if r.Terminal != want {
				t.Fatalf("lookup %q from %v: terminal %v, want %v", key, from.ID(), r.Terminal, want)
			}
		}
		val, _, err := nodes[(i+1)%len(nodes)].Get(key)
		if err != nil || val[0] != byte(i) {
			t.Fatalf("get %q: %v", key, err)
		}
	}

	var reuses, dials uint64
	for _, nd := range nodes {
		reuses += nd.Telemetry().CounterValue("cycloid_pool_reuses_total")
		dials += nd.Telemetry().CounterValue("cycloid_pool_dials_total")
	}
	if dials == 0 {
		t.Fatal("pooled mode recorded no pool dials — pool not in the path")
	}
	if reuses < dials {
		t.Fatalf("pool barely reused connections: %d reuses vs %d dials", reuses, dials)
	}
}

// TestPooledTransportSurvivesCrash crashes a node under pooled
// transport and requires the same failure semantics dial-per-request
// has: the corpse surfaces as timeouts, gets suspected, and after
// stabilization lookups converge on the live membership with no
// timeouts left.
func TestPooledTransportSurvivesCrash(t *testing.T) {
	nw := memnet.New(21)
	nodes := pooledMemCluster(t, nw, 6, 8, 11)
	stabilizeAll(nodes, 2)

	// Warm the pools so the crash hits established connections, not
	// fresh dials.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("warm-%d", i)
		if err := nodes[i%len(nodes)].Put(key, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}

	crashed := nodes[3]
	crashed.Close()
	live := make([]*Node, 0, len(nodes)-1)
	for _, nd := range nodes {
		if nd != crashed {
			live = append(live, nd)
		}
	}
	stabilizeAll(live, 3)

	space := nodes[0].space
	for trial := 0; trial < 20; trial++ {
		key := fmt.Sprintf("crash-%d", trial)
		want := bruteOwner(space, live, live[0].keyPoint(key))
		for _, from := range live {
			r, err := from.Lookup(key)
			if err != nil {
				t.Fatalf("lookup %q from %v after crash: %v", key, from.ID(), err)
			}
			if r.Terminal != want {
				t.Fatalf("lookup %q from %v: terminal %v, want %v", key, from.ID(), r.Terminal, want)
			}
			if r.Timeouts != 0 {
				t.Fatalf("lookup %q from %v: %d timeouts after stabilization", key, from.ID(), r.Timeouts)
			}
		}
	}
}

// TestPooledTransportPartitionBreaksConn verifies established pooled
// connections do not tunnel through a partition: after Block, the next
// pooled call to the blocked peer fails like a dial would, is charged
// as a timeout, and heals after Unblock.
func TestPooledTransportPartitionBreaksConn(t *testing.T) {
	nw := memnet.New(5)
	space := ids.NewSpace(5)
	a, err := Start(pooledMemConfig(nw, "a", 5, space.FromLinear(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start(pooledMemConfig(nw, "b", 5, space.FromLinear(90)))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.call(b.Addr(), request{Op: "ping"}); err != nil {
		t.Fatalf("ping over fresh pooled conn: %v", err)
	}
	nw.Partition([]string{"a"}, []string{"b"})
	if _, err := a.call(b.Addr(), request{Op: "ping"}); err == nil {
		t.Fatal("pooled connection tunneled through a partition")
	}
	nw.HealAll()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := a.call(b.Addr(), request{Op: "ping"}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pooled transport never recovered after heal")
		}
	}
	if td := a.Telemetry().CounterValue("cycloid_pool_teardowns_total"); td == 0 {
		t.Fatal("partition should have torn the pooled connection down")
	}
}

// dialMux opens a raw multiplexed stream to addr through the fabric,
// for driving the server's mux path directly.
func dialMux(t *testing.T, nw *memnet.Network, from, addr string) (conn interface {
	Write([]byte) (int, error)
	Close() error
}, br *bufio.Reader) {
	t.Helper()
	c, err := nw.Host(from).Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte(pool.Preamble)); err != nil {
		t.Fatal(err)
	}
	return c, bufio.NewReader(c)
}

func writeEnvT(t *testing.T, w interface{ Write([]byte) (int, error) }, env pool.Envelope) {
	t.Helper()
	frame, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(append(frame, '\n')); err != nil {
		t.Fatal(err)
	}
}

func readEnvT(t *testing.T, br *bufio.Reader) pool.Envelope {
	t.Helper()
	line, err := pool.ReadFrame(br, pool.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("read envelope: %v", err)
	}
	var env pool.Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		t.Fatalf("decode envelope %q: %v", line, err)
	}
	return env
}

// TestCloseDrainsInflightMuxRequests is the graceful-shutdown
// regression test: a request the server has already started dispatching
// when Close begins must still receive its response — Close drains
// in-flight work instead of dropping it on the floor.
func TestCloseDrainsInflightMuxRequests(t *testing.T) {
	nw := memnet.New(31)
	nd, err := Start(memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3}))
	if err != nil {
		t.Fatal(err)
	}
	conn, br := dialMux(t, nw, "cli", nd.Addr())
	defer conn.Close()

	// Prove the mux stream works end to end first.
	req := request{Op: "ping", From: WireEntry{K: 0, A: 0, Addr: "cli:0"}}
	p, _ := json.Marshal(req)
	writeEnvT(t, conn, pool.Envelope{ID: 1, P: p})
	if env := readEnvT(t, br); env.ID != 1 || env.Err != "" {
		t.Fatalf("mux ping failed: %+v", env)
	}

	// Hold the node's state lock so a reclaim dispatch blocks mid-flight,
	// then start Close underneath it.
	nd.mu.Lock()
	rp, _ := json.Marshal(request{Op: "reclaim", From: WireEntry{K: 2, A: 13, Addr: "cli:0"}})
	writeEnvT(t, conn, pool.Envelope{ID: 2, P: rp})
	deadline := time.Now().Add(5 * time.Second)
	for nd.Telemetry().CounterValue(`cycloid_requests_total{op="reclaim"}`) == 0 {
		if time.Now().After(deadline) {
			nd.mu.Unlock()
			t.Fatal("server never started dispatching the reclaim")
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		nd.Close()
		close(closed)
	}()
	// Close must wait for the in-flight dispatch; give it a moment to
	// reach the drain before releasing the request.
	select {
	case <-closed:
		nd.mu.Unlock()
		t.Fatal("Close returned while a dispatched request was still blocked")
	case <-time.After(100 * time.Millisecond):
	}
	nd.mu.Unlock()

	env := readEnvT(t, br)
	if env.ID != 2 {
		t.Fatalf("in-flight request answered out of order: %+v", env)
	}
	if env.Err != "" || env.P == nil {
		t.Fatalf("in-flight request at shutdown dropped without a response: %+v", env)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not complete after drain")
	}
}

// TestStoppedNodeAnswersMuxFramesWithError: frames that reach the
// server after the stop began are not silently discarded — each gets an
// explicit error envelope before the stream drops.
func TestStoppedNodeAnswersMuxFramesWithError(t *testing.T) {
	nw := memnet.New(32)
	nd, err := Start(memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3}))
	if err != nil {
		t.Fatal(err)
	}
	conn, br := dialMux(t, nw, "cli", nd.Addr())
	defer conn.Close()
	p, _ := json.Marshal(request{Op: "ping", From: WireEntry{Addr: "cli:0"}})
	writeEnvT(t, conn, pool.Envelope{ID: 1, P: p})
	if env := readEnvT(t, br); env.ID != 1 {
		t.Fatalf("mux ping failed: %+v", env)
	}

	// Stop the node, then push a frame down the still-open stream. The
	// reader may already have hit its shutdown deadline (stream torn
	// down ⇒ write or read fails, the dial-failure analogue), but if the
	// frame is read it must be answered with an error envelope.
	nd.Close()
	if err := func() error {
		frame, _ := json.Marshal(pool.Envelope{ID: 2, P: p})
		if _, err := conn.Write(append(frame, '\n')); err != nil {
			return err
		}
		line, err := pool.ReadFrame(br, pool.DefaultMaxFrame)
		if err != nil {
			return err
		}
		var env pool.Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return err
		}
		if env.Err == "" {
			t.Fatalf("stopped node answered a frame without an error: %+v", env)
		}
		return nil
	}(); err != nil {
		// Stream already torn down — acceptable: the caller sees a
		// connection failure, never a silent drop.
		t.Logf("stream closed at shutdown: %v", err)
	}
}

// TestOneShotFrameCap: an oversized one-shot request is answered with a
// wire error instead of being buffered without bound.
func TestOneShotFrameCap(t *testing.T) {
	nw := memnet.New(33)
	cfg := memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3})
	cfg.MaxFrame = 4 << 10
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	conn, err := nw.Host("cli").Dial(nd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := request{Op: "store", Key: "huge", Value: make([]byte, 32<<10), From: WireEntry{Addr: "cli:0"}}
	// The fabric's pipes are unbuffered: the oversized write blocks until
	// the server stops reading, so it must run alongside the read below.
	go func() { _ = json.NewEncoder(conn).Encode(big) }()
	var resp response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatalf("expected a wire error response, got %v", err)
	}
	if resp.OK || !strings.Contains(resp.Err, "frame limit") {
		t.Fatalf("expected frame-limit rejection, got %+v", resp)
	}

	// A request under the cap still works on a fresh connection.
	if _, err := nd.call(nd.Addr(), request{Op: "ping"}); err != nil {
		t.Fatalf("normal request after oversized one: %v", err)
	}
}

// TestMuxFrameCap: an oversized mux frame draws a connection-level
// error envelope (ID 0) and the stream is dropped — framing is
// unrecoverable once a frame overruns.
func TestMuxFrameCap(t *testing.T) {
	nw := memnet.New(34)
	cfg := memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3})
	cfg.MaxFrame = 1 << 10
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	conn, br := dialMux(t, nw, "cli", nd.Addr())
	defer conn.Close()
	p, _ := json.Marshal(request{Op: "store", Key: "huge", Value: make([]byte, 8<<10), From: WireEntry{Addr: "cli:0"}})
	// Unbuffered pipe: the oversized frame write blocks once the server
	// stops reading, so it must run alongside the read below.
	go func() {
		frame, _ := json.Marshal(pool.Envelope{ID: 1, P: p})
		_, _ = conn.Write(append(frame, '\n'))
	}()
	env := readEnvT(t, br)
	if env.ID != 0 || !strings.Contains(env.Err, "size limit") {
		t.Fatalf("expected connection-level frame error, got %+v", env)
	}
	if _, err := pool.ReadFrame(br, pool.DefaultMaxFrame); err == nil {
		t.Fatal("stream should be closed after a frame overrun")
	}
}

// TestOneShotFrameCapBinary: the CYCLOID-BIN/2 one-shot path enforces
// MaxFrame from the length prefix alone — the server answers with a
// wire error before a single payload byte arrives, so a hostile prefix
// cannot force an allocation.
func TestOneShotFrameCapBinary(t *testing.T) {
	nw := memnet.New(35)
	cfg := memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3})
	cfg.MaxFrame = 4 << 10
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	conn, err := nw.Host("cli").Dial(nd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Preamble plus an oversized length claim; no payload follows.
	var frame []byte
	frame = append(frame, codec.PreambleBinV2...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(cfg.MaxFrame+1))
	// The fabric's pipes are unbuffered, so the write must run alongside
	// the read below.
	go func() { _, _ = conn.Write(frame) }()

	br := bufio.NewReader(conn)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("expected a binary wire error response, got %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := codec.DecodeResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "frame limit") {
		t.Fatalf("expected frame-limit rejection, got %+v", resp)
	}

	// The same server still answers a well-formed request.
	if _, err := nd.call(nd.Addr(), request{Op: "ping"}); err != nil {
		t.Fatalf("normal request after oversized one: %v", err)
	}
}

// TestMuxFrameCapBinary: an oversized CYCLOID-MUX/2 frame draws a
// connection-level binary error frame (ID 0, status 1) and the stream
// is dropped, mirroring the JSON mux behavior; the length prefix is
// rejected before any payload allocation.
func TestMuxFrameCapBinary(t *testing.T) {
	nw := memnet.New(36)
	cfg := memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3})
	cfg.MaxFrame = 1 << 10
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	conn, err := nw.Host("cli").Dial(nd.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() { _, _ = conn.Write([]byte(codec.PreambleMuxV2)) }()
	br := bufio.NewReader(conn)
	ack := make([]byte, codec.PreambleLen)
	if _, err := io.ReadFull(br, ack); err != nil || string(ack) != codec.PreambleMuxV2 {
		t.Fatalf("negotiation echo = %q, %v", ack, err)
	}
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(cfg.MaxFrame+1))
		_, _ = conn.Write(hdr[:])
	}()
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("expected a connection-level error frame, got %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	if len(body) < 9 {
		t.Fatalf("error frame too short: %d bytes", len(body))
	}
	id, status, msg := binary.LittleEndian.Uint64(body), body[8], string(body[9:])
	if id != 0 || status != 1 || !strings.Contains(msg, "size limit") {
		t.Fatalf("expected connection-level frame error, got id=%d status=%d msg=%q", id, status, msg)
	}
	if _, err := io.ReadFull(br, hdr[:]); err == nil {
		t.Fatal("stream should be closed after a frame overrun")
	}
}

// TestMixedCodecClusterInterop boots one pooled overlay whose members
// are pinned to different wire codecs — v1 JSON, v2 binary, and
// auto-negotiating — and drives joins, puts, gets and exact lookups
// across every pairing. Servers auto-detect the codec per connection,
// so the overlay must behave identically to a homogeneous one.
func TestMixedCodecClusterInterop(t *testing.T) {
	nw := memnet.New(37)
	dim, n := 5, 9
	codecs := []string{"json", "binary", "auto"}
	space := ids.NewSpace(dim)
	rng := rand.New(rand.NewSource(44))
	taken := make(map[uint64]bool)
	nodes := make([]*Node, 0, n)
	for len(nodes) < n {
		v := uint64(rng.Int63n(int64(space.Size())))
		if taken[v] {
			continue
		}
		taken[v] = true
		cfg := pooledMemConfig(nw, fmt.Sprintf("m%d", len(nodes)), dim, space.FromLinear(v))
		cfg.WireCodec = codecs[len(nodes)%len(codecs)]
		nd, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) > 0 {
			// Join through the previous node, so every join crosses a
			// codec boundary (the codec list has no repeats mod 3).
			if err := nd.Join(nodes[len(nodes)-1].Addr()); err != nil {
				t.Fatalf("%s node join: %v", cfg.WireCodec, err)
			}
		}
		nodes = append(nodes, nd)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		for _, nd := range nodes {
			nd.Stabilize()
		}
	}

	for i := 0; i < 27; i++ {
		key := fmt.Sprintf("mixed-%d", i)
		if err := nodes[i%n].Put(key, []byte(key)); err != nil {
			t.Fatalf("put via %s node: %v", codecs[i%n%len(codecs)], err)
		}
	}
	for i := 0; i < 27; i++ {
		key := fmt.Sprintf("mixed-%d", i)
		reader := (i*7 + 1) % n
		val, _, err := nodes[reader].Get(key)
		if err != nil {
			t.Fatalf("get %q via %s node: %v", key, codecs[reader%len(codecs)], err)
		}
		if string(val) != key {
			t.Fatalf("get %q = %q", key, val)
		}
		want, err := nodes[0].Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nodes[reader].Lookup(key)
		if err != nil {
			t.Fatal(err)
		}
		if want.Terminal != got.Terminal {
			t.Fatalf("lookup %q disagrees across codecs: %v vs %v", key, want.Terminal, got.Terminal)
		}
	}
}
