package p2p

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/memnet"
)

// TestPooledTransportLookups runs the basic overlay workload — joins,
// puts, exact lookups, gets — and checks the pool carries the traffic
// on long-lived connections: reuses recorded, dials bounded.
func TestPooledTransportLookups(t *testing.T) {
	nw := memnet.New(7)
	nodes := memCluster(t, nw, 6, 10, 3, nil)
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
		t.Fatal("no pool dials recorded — pool not in the path")
	}
	if reuses < dials {
		t.Fatalf("pool barely reused connections: %d reuses vs %d dials", reuses, dials)
	}
}

// TestPooledTransportSurvivesCrash crashes a node with established
// pooled connections and requires the paper's failure semantics: the
// corpse surfaces as timeouts, gets suspected, and after stabilization
// lookups converge on the live membership with no timeouts left.
func TestPooledTransportSurvivesCrash(t *testing.T) {
	nw := memnet.New(21)
	nodes := memCluster(t, nw, 6, 8, 11, nil)

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
	fleet.Stabilize(live, 3)

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
	a, err := Start(memConfig(nw, "a", 5, space.FromLinear(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start(memConfig(nw, "b", 5, space.FromLinear(90)))
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

// dialMux opens a raw CYCLOID-MUX/2 stream to addr through the fabric
// and completes the handshake, for driving the server's mux path
// directly.
func dialMux(t *testing.T, nw *memnet.Network, from, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := nw.Host(from).Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The fabric's pipes are unbuffered, so the write runs alongside
	// the read of the echo.
	go func() { _, _ = c.Write([]byte(codec.PreambleMuxV2)) }()
	br := bufio.NewReader(c)
	ack := make([]byte, codec.PreambleLen)
	if _, err := io.ReadFull(br, ack); err != nil || string(ack) != codec.PreambleMuxV2 {
		t.Fatalf("handshake echo = %q, %v", ack, err)
	}
	return c, br
}

// muxFrame encodes req as one request frame under correlation id.
func muxFrame(t *testing.T, id uint64, req request) []byte {
	t.Helper()
	out := make([]byte, 13, 13+req.SizeHint())
	binary.LittleEndian.PutUint64(out[4:], id)
	out, err := codec.AppendRequest(out, &req)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	return out
}

// readMux reads one response frame: its correlation ID, status (0 for a
// response body, 1 for an error message) and body.
func readMux(br *bufio.Reader) (id uint64, status byte, body []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return
	}
	buf := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err = io.ReadFull(br, buf); err != nil {
		return
	}
	if len(buf) < 9 {
		return 0, 0, nil, fmt.Errorf("frame too short: %d bytes", len(buf))
	}
	return binary.LittleEndian.Uint64(buf), buf[8], buf[9:], nil
}

// readRespT reads one response frame and decodes its body, failing the
// test on a transport error.
func readRespT(t *testing.T, br *bufio.Reader) (uint64, response) {
	t.Helper()
	id, status, body, err := readMux(br)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	var resp response
	if status != 0 {
		resp.Err = string(body)
	} else if err := codec.DecodeResponse(body, &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return id, resp
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
	ping := muxFrame(t, 1, request{Op: "ping", From: WireEntry{K: 0, A: 0, Addr: "cli:0"}})
	go func() { _, _ = conn.Write(ping) }()
	if id, resp := readRespT(t, br); id != 1 || !resp.OK {
		t.Fatalf("mux ping failed: id=%d %+v", id, resp)
	}

	// Hold the node's state lock so a reclaim dispatch blocks mid-flight,
	// then start Close underneath it.
	nd.mu.Lock()
	reclaim := muxFrame(t, 2, request{Op: "reclaim", From: WireEntry{K: 2, A: 13, Addr: "cli:0"}})
	go func() { _, _ = conn.Write(reclaim) }()
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

	id, resp := readRespT(t, br)
	if id != 2 {
		t.Fatalf("in-flight request answered out of order: id=%d %+v", id, resp)
	}
	if !resp.OK {
		t.Fatalf("in-flight request at shutdown dropped without a response: %+v", resp)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not complete after drain")
	}
}

// TestStoppedNodeAnswersMuxFramesWithError: frames that reach the
// server after the stop began are not silently discarded — each gets an
// explicit error frame before the stream drops.
func TestStoppedNodeAnswersMuxFramesWithError(t *testing.T) {
	nw := memnet.New(32)
	nd, err := Start(memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3}))
	if err != nil {
		t.Fatal(err)
	}
	conn, br := dialMux(t, nw, "cli", nd.Addr())
	defer conn.Close()
	ping := request{Op: "ping", From: WireEntry{Addr: "cli:0"}}
	first, second := muxFrame(t, 1, ping), muxFrame(t, 2, ping)
	go func() { _, _ = conn.Write(first) }()
	if id, _ := readRespT(t, br); id != 1 {
		t.Fatalf("mux ping failed: id=%d", id)
	}

	// Stop the node, then push a frame down the still-open stream. The
	// reader may already have hit its shutdown deadline (stream torn
	// down ⇒ write or read fails, the dial-failure analogue), but if the
	// frame is read it must be answered with an error frame.
	nd.Close()
	go func() { _, _ = conn.Write(second) }()
	if _, status, body, err := readMux(br); err != nil {
		// Stream already torn down — acceptable: the caller sees a
		// connection failure, never a silent drop.
		t.Logf("stream closed at shutdown: %v", err)
	} else if status != 1 {
		t.Fatalf("stopped node answered a frame without an error: status=%d body=%q", status, body)
	}
}

// TestServerRefusesForeignOpenings: CYCLOID-MUX/2 is the only protocol
// a node speaks. A connection that opens any other way — a JSON request
// line (the retired v1 one-shot), the retired CYCLOID-MUX/1 and
// CYCLOID-BIN/2 preambles with a well-formed request behind them, or
// random bytes — is closed without a byte written and without
// dispatching anything.
func TestServerRefusesForeignOpenings(t *testing.T) {
	nw := memnet.New(33)
	nd, err := Start(memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	requests := func() (sum uint64) {
		for name, v := range nd.Telemetry().CounterValues() {
			if strings.HasPrefix(name, "cycloid_requests_total") {
				sum += v
			}
		}
		return sum
	}

	ping := request{Op: "ping", From: WireEntry{K: 0, A: 1, Addr: "cli:0"}}
	body, err := codec.AppendRequest(nil, &ping)
	if err != nil {
		t.Fatal(err)
	}
	binOneShot := binary.LittleEndian.AppendUint32([]byte("CYCLOID-BIN/2\n"), uint32(len(body)))
	binOneShot = append(binOneShot, body...)
	random := make([]byte, 256)
	rand.New(rand.NewSource(33)).Read(random)
	openings := map[string][]byte{
		"json":   []byte(`{"op":"ping","from":{"k":0,"a":1,"addr":"cli:0"}}` + "\n"),
		"mux1":   []byte("CYCLOID-MUX/1\n" + `{"id":1,"p":{"op":"ping","from":{"k":0,"a":1,"addr":"cli:0"}}}` + "\n"),
		"bin2":   binOneShot,
		"random": random,
	}
	for name, opening := range openings {
		t.Run(name, func(t *testing.T) {
			before := requests()
			conn, err := nw.Host("cli").Dial(nd.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// The write may stall on the unbuffered fabric once the
			// server stops reading; the close unblocks it.
			go func() { _, _ = conn.Write(opening) }()
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(conn)
			if len(got) != 0 {
				t.Fatalf("server wrote %q in reply to a foreign opening", got)
			}
			if err != nil {
				t.Fatalf("server did not close the connection: %v", err)
			}
			if after := requests(); after != before {
				t.Fatalf("a foreign opening was dispatched: cycloid_requests_total %d -> %d", before, after)
			}
		})
	}

	// The same server still answers its own protocol.
	if _, err := nd.call(nd.Addr(), request{Op: "ping"}); err != nil {
		t.Fatalf("ping after foreign openings: %v", err)
	}
}

// TestMuxFrameCap: an oversized CYCLOID-MUX/2 frame draws a
// connection-level error frame (ID 0, status 1) and the stream is
// dropped — framing is unrecoverable once a frame overruns. The length
// prefix is rejected before any payload allocation.
func TestMuxFrameCap(t *testing.T) {
	nw := memnet.New(36)
	cfg := memConfig(nw, "srv", 5, ids.CycloidID{K: 1, A: 3})
	cfg.MaxFrame = 1 << 10
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	conn, br := dialMux(t, nw, "cli", nd.Addr())
	defer conn.Close()
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(cfg.MaxFrame+1))
		_, _ = conn.Write(hdr[:])
	}()
	id, status, body, err := readMux(br)
	if err != nil {
		t.Fatalf("expected a connection-level error frame, got %v", err)
	}
	if id != 0 || status != 1 || !strings.Contains(string(body), "size limit") {
		t.Fatalf("expected connection-level frame error, got id=%d status=%d msg=%q", id, status, body)
	}
	if _, _, _, err := readMux(br); err == nil {
		t.Fatal("stream should be closed after a frame overrun")
	}
}

// TestMuxFrameCapBinary: a complete, well-formed CYCLOID-MUX/2 request
// frame whose body overruns MaxFrame (a store carrying an 8 KiB value
// against a 1 KiB cap) is refused the same way as a bare oversized
// length prefix: one connection-level error frame, then the stream is
// dropped and the request is never dispatched.
func TestMuxFrameCapBinary(t *testing.T) {
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
	frame := muxFrame(t, 1, request{Op: "store", Key: "huge", Value: make([]byte, 8<<10), From: WireEntry{Addr: "cli:0"}})
	// Unbuffered pipe: the oversized frame write blocks once the server
	// stops reading, so it must run alongside the read below.
	go func() { _, _ = conn.Write(frame) }()
	id, status, body, err := readMux(br)
	if err != nil {
		t.Fatalf("expected a connection-level error frame, got %v", err)
	}
	if id != 0 || status != 1 || !strings.Contains(string(body), "size limit") {
		t.Fatalf("expected connection-level frame error, got id=%d status=%d msg=%q", id, status, body)
	}
	if _, _, _, err := readMux(br); err == nil {
		t.Fatal("stream should be closed after a frame overrun")
	}
	if keys := nd.Keys(); len(keys) != 0 {
		t.Fatalf("an oversized store frame was dispatched: node holds %v", keys)
	}
}
