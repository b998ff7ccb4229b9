package p2p

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/memnet"
)

// fuzzNode is shared across fuzz executions: handle must be safe against
// arbitrary bytes on a node in any state, including one already mutated
// by earlier malformed traffic.
var (
	fuzzOnce sync.Once
	fuzzNode *Node
)

func fuzzTarget(t *testing.T) *Node {
	fuzzOnce.Do(func() {
		nw := memnet.New(42)
		nd, err := Start(Config{
			Dim:         5,
			ID:          &ids.CycloidID{K: 2, A: 13},
			DialTimeout: 100 * time.Millisecond,
			Transport:   nw.Host("fuzz"),
		})
		if err != nil {
			t.Fatal(err)
		}
		fuzzNode = nd
	})
	return fuzzNode
}

// fuzzConn feeds handle a fixed input and then EOF, so every input —
// a well-formed stream included — runs to completion without a peer
// having to decide when to hang up. Replies are collected, not checked.
type fuzzConn struct {
	net.Conn // nil: handle uses only the methods below
	in       *bytes.Reader
	mu       sync.Mutex
	out      []byte
}

func (c *fuzzConn) Read(p []byte) (int, error) { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return len(p), nil
}
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// muxStream is a CYCLOID-MUX/2 opening followed by one request frame
// per request, correlation IDs counting from 1.
func muxStream(f *testing.F, reqs ...request) []byte {
	out := []byte(codec.PreambleMuxV2)
	for i := range reqs {
		body, err := codec.AppendRequest(nil, &reqs[i])
		if err != nil {
			f.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(9+len(body)))
		out = binary.LittleEndian.AppendUint64(out, uint64(i+1))
		out = append(out, 0)
		out = append(out, body...)
	}
	return out
}

// muxReply is a CYCLOID-MUX/2 opening followed by one frame whose body
// is an encoded response, so the client-side decode below starts from
// well-formed replies.
func muxReply(f *testing.F, resp response) []byte {
	body, err := codec.AppendResponse(nil, &resp)
	if err != nil {
		f.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint32([]byte(codec.PreambleMuxV2), uint32(9+len(body)))
	out = binary.LittleEndian.AppendUint64(out, 1)
	out = append(out, 0)
	return append(out, body...)
}

// FuzzWireDecode throws arbitrary bytes at the server's connection
// handler and at the client-side decoders. Malformed, truncated, or
// adversarial input must never panic or hang: handle either serves
// CYCLOID-MUX/2 frames until the stream ends, or drops the connection.
func FuzzWireDecode(f *testing.F) {
	from := WireEntry{K: 1, A: 3, Addr: "peer:1"}
	departed := &WireState{Self: from, InsideL: &WireEntry{K: 2, A: 3, Addr: "peer:2"}}
	// Well-formed streams for every op, so mutations explore the
	// interesting decode paths rather than bailing at the first frame.
	for _, r := range []request{
		{Op: "ping", From: from},
		{Op: "state"},
		{Op: "step", From: from, Target: &WireEntry{K: 4, A: 21}, GreedyOnly: true},
		{Op: "step", From: from, Target: &WireEntry{K: 250, A: 4000000000}},
		{Op: "store", From: from, Key: "doc", Value: []byte("hello")},
		{Op: "store", From: from, Key: "doc", Value: []byte("hello"), Ver: 2, Src: 4},
		{Op: "fetch", From: from, Key: "doc"},
		{Op: "handoff", From: from, Items: map[string]WireItem{"a": {V: []byte{0}, Ver: 3, Src: 7}, "b": {}}},
		{Op: "reclaim", From: WireEntry{K: 3, A: 14, Addr: "peer:1"}},
		{Op: "replicate", From: from, Key: "doc", Value: []byte("hello"), Ver: 5, Src: 19},
		{Op: "replicate", From: from, Key: "doc", Ver: ^uint64(0), Src: ^uint64(0)},
		{Op: "update", Event: "join", From: from, Subject: &from, Propagate: true, TTL: 99},
		{Op: "update", Event: "leave", From: from, Subject: &from, Departed: departed},
		{Op: "step", From: from, Target: &WireEntry{K: 4, A: 21},
			TraceHi: 0x0123456789abcdef, TraceLo: 0xfedcba9876543210, ParentSpan: 42, TraceFlags: 1 | 16<<1},
		{Op: "fetch", From: from, Key: "doc", DeadlineMs: 500, TraceHi: 1, TraceLo: 2, ParentSpan: 3, TraceFlags: 1},
		{Op: "step", From: from},
		// Forwarded steps: a route's start, one past failures that is
		// already greedy, and one out of its hop budget.
		{Op: "step", From: from, Target: &WireEntry{K: 4, A: 21}, Route: &codec.RouteState{}, DeadlineMs: 500},
		{Op: "step", From: from, Target: &WireEntry{K: 4, A: 21}, GreedyOnly: true, Route: &codec.RouteState{
			Hops: 3, Phases: [3]uint32{1, 1, 1}, Timeouts: 1, Forced: codec.RouteShed,
			Best: WireEntry{K: 2, A: 20, Addr: "peer:2"}, Since: 1, Avoid: []string{"peer:9"}}},
		{Op: "step", From: from, Target: &WireEntry{K: 4, A: 21}, Route: &codec.RouteState{Hops: 1 << 20}},
		{Op: "bogus", From: from},
		{},
	} {
		f.Add(muxStream(f, r))
	}
	ping := request{Op: "ping", From: from}
	step := request{Op: "step", From: from, Target: &WireEntry{K: 4, A: 21}}
	pingFrame := muxStream(f, ping)
	for _, s := range [][]byte{
		// Pipelined streams: inline and dispatched ops interleaved.
		muxStream(f, ping, step, request{Op: "fetch", From: from, Key: "doc"}),
		muxStream(f, request{Op: "store", From: from, Key: "k", Value: []byte("v")}, step, ping),
		// Damaged frames.
		pingFrame[:20], // truncated mid-frame
		append([]byte(codec.PreambleMuxV2), 0xff, 0xff, 0xff, 0xff),                // absurd length claim
		append([]byte(codec.PreambleMuxV2), 5, 0, 0, 0, 1, 2, 3, 4, 5),             // frame shorter than its envelope
		append([]byte(codec.PreambleMuxV2), 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), // id 0
		append([]byte(codec.PreambleMuxV2), 9, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1), // error status on a request
		append([]byte(codec.PreambleMuxV2), 12, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0x01),
		append(append([]byte{}, pingFrame...), 0xff, 0xff, 0xff, 0x7f), // good frame, then an overrun
		[]byte(codec.PreambleMuxV2),
		// Foreign openings, which the server must drop unanswered.
		[]byte(`{"op":"ping","from":{"k":1,"a":3,"addr":"peer:1"}}` + "\n"),
		[]byte("CYCLOID-MUX/1\n" + `{"id":1,"p":{"op":"ping"}}` + "\n"),
		append([]byte("CYCLOID-BIN/2\n"), pingFrame[codec.PreambleLen:]...),
		[]byte("CYCLOID-MUX/"),
		[]byte("\x00\x01\xff garbage"),
		{},
		// Reply-shaped frames, for the client-side decoders.
		muxReply(f, response{OK: true, Phase: "descending", Candidates: []WireEntry{{K: 1, A: 2, Addr: "x"}}, State: &WireState{}}),
		muxReply(f, response{Err: "not responsible", Redirect: &WireEntry{K: 2, A: 9, Addr: "peer:3"}}),
		muxReply(f, response{OK: true, Ver: 7, Replicas: []WireEntry{{K: 2, A: 9, Addr: "peer:3"}, {K: 0, A: 1, Addr: "peer:4"}}}),
		muxReply(f, response{OK: true, Found: true, Value: []byte("hello"), Ver: 12}),
		muxReply(f, response{Busy: true, RetryAfterMs: 50}),
		muxReply(f, response{OK: true, Items: map[string]WireItem{"a": {V: []byte("va"), Ver: 3, Src: 7}, "b": {V: []byte{}}, "c": {}}}),
		muxReply(f, response{OK: true, Items: map[string]WireItem{"k": {Ver: ^uint64(0)}}, Redirect: &WireEntry{K: 2, A: 9, Addr: "peer:3"}}),
		muxReply(f, response{OK: true, Route: &codec.RouteState{Hops: 4, Phases: [3]uint32{1, 2, 1}, Timeouts: 1, Best: WireEntry{K: 4, A: 21, Addr: "peer:4"}}}),
		muxReply(f, response{Err: "p2p: route to (4,21) did not converge", Route: &codec.RouteState{Hops: 1 << 10, Forced: codec.RouteGreedy}}),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzTarget(t)

		// Server side: the bytes arrive as a connection's payload.
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.srv.ServeConn(&fuzzConn{in: bytes.NewReader(data)})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("handle hung on %d-byte input", len(data))
		}

		// Client side: the same bytes, and the body of a first frame
		// behind a preamble, as a peer's reply.
		var resp response
		_ = codec.DecodeResponse(data, &resp)
		if hdr := codec.PreambleLen + 13; len(data) > hdr {
			var fresp response
			_ = codec.DecodeResponse(data[hdr:], &fresp)
		}
	})
}
