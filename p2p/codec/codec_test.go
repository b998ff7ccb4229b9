package codec

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// sampleRequests covers every field combination the protocol sends,
// plus the awkward corners: empty-vs-nil byte slices, out-of-table enum
// strings, negative TTL, saturated integers.
func sampleRequests() []Request {
	e := func(k uint8, a uint32, addr string) *Entry { return &Entry{K: k, A: a, Addr: addr} }
	st := &State{
		Self:    Entry{K: 3, A: 77, Addr: "10.0.0.7:4100"},
		Cubical: e(2, 76, "10.0.0.8:4100"),
		CyclicS: e(3, 12, "10.0.0.9:4100"),
		InsideR: e(3, 78, "10.0.0.10:4100"),
	}
	return []Request{
		{},
		{Op: "ping", From: Entry{K: 1, A: 9, Addr: "a:1"}},
		{Op: "state", From: Entry{K: 7, A: 255, Addr: "host.example:65535"}},
		{Op: "step", From: Entry{K: 2, A: 3, Addr: "b:2"}, Target: e(5, 9000, "c:3"), GreedyOnly: true},
		{Op: "step", From: Entry{K: 2, A: 3, Addr: "b:2"}, Target: &Entry{}},
		{Op: "store", From: Entry{K: 0, A: 0, Addr: ""}, Key: "k1", Value: []byte("v1"), Ver: 42, Src: 7},
		{Op: "store", Key: "empty-value", Value: []byte{}}, // collapses to nil, like JSON omitempty
		{Op: "fetch", Key: "only-key"},
		{Op: "replicate", Key: "rk", Value: []byte{0, 255, 10, '\n', '"'}, Ver: 1<<64 - 1, Src: 1<<64 - 1},
		{Op: "handoff", Items: map[string]Item{
			"a": {V: []byte("x"), Ver: 1, Src: 2},
			"b": {V: nil, Ver: 3},
			"c": {V: []byte{}, Ver: 4, Src: 5},
		}},
		{Op: "reclaim", From: Entry{K: 6, A: 31, Addr: "d:4"}},
		{Op: "update", Event: "join", Subject: e(1, 2, "e:5"), Propagate: true, Origin: e(1, 2, "e:5"), TTL: 12},
		{Op: "update", Event: "leave", Departed: st, TTL: -3},
		{Op: "weird-op", Event: "weird-event", Key: "spoofed", TTL: 1 << 40},
		{Op: "step", Target: e(255, 1<<32-1, ""), Key: string([]byte{0, 1, 2})},
		{Op: "fetch", Key: "deadline", DeadlineMs: 1500},
		{Op: "store", Key: "deadline-max", Value: []byte("v"), DeadlineMs: 1<<32 - 1},
		// Forwarded steps: a route's start, a route past failures, and
		// saturated counters.
		{Op: "step", From: Entry{K: 2, A: 3, Addr: "b:2"}, Target: e(5, 9000, ""), Route: &RouteState{}, DeadlineMs: 2000},
		{Op: "step", From: Entry{K: 2, A: 3, Addr: "b:2"}, Target: e(5, 9000, ""), GreedyOnly: true, Route: &RouteState{
			Hops: 7, Phases: [3]uint32{2, 3, 1}, Timeouts: 2, Forced: RouteShed | RouteGreedy,
			Best: Entry{K: 4, A: 8999, Addr: "c:3"}, Since: 1, Avoid: []string{"dead:1", "busy:2"}}},
		{Op: "step", Route: &RouteState{Hops: 1<<32 - 1, Phases: [3]uint32{1<<32 - 1, 0, 1<<32 - 1},
			Timeouts: 1<<32 - 1, Forced: 255, Since: 1<<32 - 1, Avoid: []string{""}}},
	}
}

func sampleResponses() []Response {
	e := func(k uint8, a uint32, addr string) *Entry { return &Entry{K: k, A: a, Addr: addr} }
	st := &State{
		Self:     Entry{K: 4, A: 19, Addr: "s:1"},
		CyclicL:  e(4, 3, "s:2"),
		InsideL:  e(4, 18, "s:3"),
		OutsideL: e(3, 19, "s:4"),
		OutsideR: e(5, 19, "s:5"),
	}
	return []Response{
		{},
		{OK: true},
		{OK: false, Err: "node stopped"},
		{OK: true, Phase: "ascending", Candidates: []Entry{{K: 1, A: 2, Addr: "x:1"}, {K: 3, A: 4, Addr: "y:2"}}},
		{OK: true, Phase: "descending", Done: true},
		{OK: true, Phase: "traverse", Candidates: []Entry{{}}},
		{OK: true, Phase: "bogus-phase"},
		{OK: true, State: st},
		{OK: true, Found: true, Value: []byte("stored"), Ver: 9},
		{OK: true, Found: true, Value: []byte{}},             // collapses to nil
		{OK: true, Found: true, Value: chunkValue(), Ver: 2}, // a blob chunk's fetch reply
		{OK: false, Err: "not responsible", Redirect: e(2, 9, "z:3")},
		{OK: true, Ver: 3, Replicas: []Entry{{K: 1, A: 1, Addr: "r:1"}, {K: 1, A: 2, Addr: "r:2"}, {K: 1, A: 3, Addr: "r:3"}}},
		{OK: true, Err: "soft warning", Value: []byte{1}, Ver: 1<<64 - 1, Done: true, Found: true},
		{OK: false, Err: "busy: admission queue full", Busy: true, RetryAfterMs: 40},
		{OK: false, Busy: true},
		{OK: false, Err: "busy", Busy: true, RetryAfterMs: 1<<32 - 1, Redirect: e(2, 9, "z:3")},
		{OK: true, Items: map[string]Item{"a": {V: []byte("va"), Ver: 4, Src: 9}, "b": {V: []byte{}}, "c": {}}},
		{OK: true, Items: map[string]Item{"": {Ver: 1<<64 - 1}}, Redirect: e(2, 9, "z:3")},
		// A forwarded route's answer, relayed from its terminal: totals
		// and the terminal, or the route's failure.
		{OK: true, Route: &RouteState{Hops: 5, Phases: [3]uint32{2, 2, 1}, Timeouts: 1, Best: Entry{K: 3, A: 77, Addr: "t:1"}}},
		{OK: true, Route: &RouteState{Best: Entry{K: 1, A: 2, Addr: "self:1"}}},
		{OK: false, Err: "p2p: route to (3,4) did not converge", Route: &RouteState{Hops: 1280, Forced: RouteGreedy}},
		{OK: false, Err: "busy: admission queue full", Busy: true, RetryAfterMs: 3, Route: &RouteState{Avoid: []string{"a:1"}}},
	}
}

// chunkValue is a default-size blob chunk of position-dependent bytes.
func chunkValue() []byte {
	v := make([]byte, 64<<10)
	for i := range v {
		v[i] = byte(i*31 + i>>8)
	}
	return v
}

// jsonRoundTripReq is the reference semantics: what a peer on the v1
// codec would decode from what we encode.
func jsonRoundTripReq(t *testing.T, r Request) Request {
	t.Helper()
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("json marshal: %v", err)
	}
	var out Request
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("json unmarshal: %v", err)
	}
	return out
}

func jsonRoundTripResp(t *testing.T, r Response) Response {
	t.Helper()
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("json marshal: %v", err)
	}
	var out Response
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("json unmarshal: %v", err)
	}
	return out
}

// TestBinaryMatchesJSONRequest is the differential core: for every
// sample, a binary round trip must produce exactly what a JSON round
// trip produces — including the omitempty empty→nil collapses and the
// Item.V nil/empty distinction.
func TestBinaryMatchesJSONRequest(t *testing.T) {
	for i, r := range sampleRequests() {
		want := jsonRoundTripReq(t, r)
		enc, err := AppendRequest(nil, &r)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		var got Request
		if err := DecodeRequest(enc, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: binary round trip diverged from JSON\n json: %+v\n  bin: %+v", i, want, got)
		}
	}
}

func TestBinaryMatchesJSONResponse(t *testing.T) {
	for i, r := range sampleResponses() {
		want := jsonRoundTripResp(t, r)
		enc, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		var got Response
		if err := DecodeResponse(enc, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: binary round trip diverged from JSON\n json: %+v\n  bin: %+v", i, want, got)
		}
	}
}

// TestDecodeNoAliasing checks decoded values survive the frame buffer
// being clobbered, as happens when a pooled buffer is reused.
func TestDecodeNoAliasing(t *testing.T) {
	r := Request{Op: "store", Key: "alias-key", Value: []byte("alias-value"),
		Items: map[string]Item{"ik": {V: []byte("iv"), Ver: 1}}}
	enc, err := AppendRequest(nil, &r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got Request
	if err := DecodeRequest(enc, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range enc {
		enc[i] = 0xAA
	}
	if got.Key != "alias-key" || string(got.Value) != "alias-value" {
		t.Fatalf("decoded request aliases the frame buffer: %+v", got)
	}
	if it := got.Items["ik"]; string(it.V) != "iv" {
		t.Fatalf("decoded item aliases the frame buffer: %+v", it)
	}
}

// TestDecodeTruncated feeds every proper prefix of valid encodings to
// the decoders: none may panic, and all must fail (a shorter payload
// can never be a valid encoding of something else here because every
// sample ends with fixed-width fields).
func TestDecodeTruncated(t *testing.T) {
	for i, r := range sampleRequests() {
		enc, err := AppendRequest(nil, &r)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		for n := 0; n < len(enc); n++ {
			var out Request
			if err := DecodeRequest(enc[:n], &out); err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(enc))
			}
		}
	}
	for i, r := range sampleResponses() {
		enc, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		for n := 0; n < len(enc); n++ {
			var out Response
			if err := DecodeResponse(enc[:n], &out); err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(enc))
			}
		}
	}
}

// TestDecodeClaimedCountBomb checks that a frame claiming a huge element
// count but carrying few bytes is rejected before any large allocation.
func TestDecodeClaimedCountBomb(t *testing.T) {
	// Candidates count patched to MaxUint32 in a minimal response.
	enc, err := AppendResponse(nil, &Response{OK: true})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Layout: flags(1) str Err(4) phase(1) nCandidates(4) ...
	bomb := append([]byte(nil), enc...)
	bomb[6], bomb[7], bomb[8], bomb[9] = 0xFF, 0xFF, 0xFF, 0xFF
	var resp Response
	if err := DecodeResponse(bomb, &resp); err == nil {
		t.Fatal("candidate-count bomb decoded successfully")
	}

	// Items count patched in a minimal request.
	renc, err := AppendRequest(nil, &Request{Op: "handoff"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Layout: op(1) entry From(1+4+4) flags(1) str Key(4) blob Value(4)
	// ver(8) src(8) nItems(4) ...
	off := 1 + 9 + 1 + 4 + 4 + 8 + 8
	rbomb := append([]byte(nil), renc...)
	rbomb[off], rbomb[off+1], rbomb[off+2], rbomb[off+3] = 0xFF, 0xFF, 0xFF, 0xFF
	var req Request
	if err := DecodeRequest(rbomb, &req); err == nil {
		t.Fatal("item-count bomb decoded successfully")
	}
}

// TestDecodeGarbage throws structured garbage at the decoders; they must
// return errors, never panic.
func TestDecodeGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0xFF},
		{250},                    // op code above table but not extCode
		{1, 0, 0, 0, 0, 0, 0xFF}, // entry with truncated addr length
		make([]byte, 64),         // all zeros beyond a zero request
		{0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for i, c := range cases {
		var req Request
		_ = DecodeRequest(c, &req) // must not panic
		var resp Response
		_ = DecodeResponse(c, &resp)
		_ = i
	}
}

// TestEnumEscape pins the 255-escape: any string value that somehow
// enters an enum field survives the binary codec byte-for-byte.
func TestEnumEscape(t *testing.T) {
	r := Request{Op: "definitely-not-an-op", Event: "also-not-an-event"}
	enc, err := AppendRequest(nil, &r)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got Request
	if err := DecodeRequest(enc, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Op != r.Op || got.Event != r.Event {
		t.Fatalf("enum escape lost data: %+v", got)
	}
	resp := Response{Phase: "phase-of-the-moon"}
	encR, err := AppendResponse(nil, &resp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var gotR Response
	if err := DecodeResponse(encR, &gotR); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotR.Phase != resp.Phase {
		t.Fatalf("phase escape lost data: %+v", gotR)
	}
}

// TestCodecAllocBounds pins the codec-level allocation budget for the
// lookup hot path: encoding into a reused buffer must not allocate at
// all, and decoding a step exchange stays within a handful of fixed
// allocations (the Target pointer, the candidate slice) once the
// interner has seen the wire strings.
func TestCodecAllocBounds(t *testing.T) {
	req := Request{Op: "step", From: Entry{K: 2, A: 9, Addr: "127.0.0.1:41000"},
		Target: &Entry{K: 5, A: 123, Addr: ""}}
	resp := Response{OK: true, Phase: "descending", Candidates: []Entry{
		{K: 5, A: 122, Addr: "127.0.0.1:41001"},
		{K: 4, A: 123, Addr: "127.0.0.1:41002"},
	}}

	buf := make([]byte, 0, 4096)
	encAllocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendRequest(buf[:0], &req); err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendResponse(buf[:0], &resp); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 0 {
		t.Errorf("encode into reused buffer allocates %.1f/op, want 0", encAllocs)
	}

	reqEnc, _ := AppendRequest(nil, &req)
	respEnc, _ := AppendResponse(nil, &resp)
	// Warm the interner.
	var warm Request
	if err := DecodeRequest(reqEnc, &warm); err != nil {
		t.Fatal(err)
	}
	decAllocs := testing.AllocsPerRun(200, func() {
		var r Request
		if err := DecodeRequest(reqEnc, &r); err != nil {
			t.Fatal(err)
		}
		var p Response
		if err := DecodeResponse(respEnc, &p); err != nil {
			t.Fatal(err)
		}
	})
	// Target pointer + candidates slice, with headroom for runtime noise.
	if decAllocs > 4 {
		t.Errorf("step exchange decode allocates %.1f/op, want <= 4", decAllocs)
	}

	// Into a candidate list the caller owns (a route's step buffers) the
	// step reply decodes without allocating.
	cands := make([]Entry, 0, 7)
	ownedAllocs := testing.AllocsPerRun(200, func() {
		p := Response{Candidates: cands}
		if err := DecodeResponse(respEnc, &p); err != nil {
			t.Fatal(err)
		}
	})
	if ownedAllocs > 0 {
		t.Errorf("step reply decode into a caller's candidate list allocates %.1f/op, want 0", ownedAllocs)
	}
}

// TestDecodeIntoCallerStorage pins the candidate-buffer contract: a
// preset r.Candidates changes where the decoded candidates live, never
// what they are. They fill the caller's backing array when it is large
// enough and a fresh slice otherwise.
func TestDecodeIntoCallerStorage(t *testing.T) {
	for i, r := range sampleResponses() {
		enc, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatalf("response %d: encode: %v", i, err)
		}
		var fresh Response
		if err := DecodeResponse(enc, &fresh); err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		for _, size := range []int{0, 1, 7} {
			buf := make([]Entry, size)
			for j := range buf {
				buf[j] = Entry{K: 9, A: 9, Addr: "stale"}
			}
			got := Response{Candidates: buf[:0]}
			if err := DecodeResponse(enc, &got); err != nil {
				t.Fatalf("response %d: decode into %d-entry buffer: %v", i, size, err)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("response %d: decode into %d-entry buffer diverged\n fresh: %+v\n  into: %+v", i, size, fresh, got)
			}
			if n := len(got.Candidates); n > 0 && n <= size && &got.Candidates[0] != &buf[0] {
				t.Errorf("response %d: %d candidates fit the %d-entry buffer but went elsewhere", i, n, size)
			}
		}
	}

	// The value buffer: a fetch reply's value fills a buffer with room
	// in place, gets a fresh slice past a short one (never writing
	// into it), and decodes to nil when empty, whatever the buffer.
	want := chunkValue()
	fetch, err := AppendResponse(nil, &Response{OK: true, Found: true, Value: want})
	if err != nil {
		t.Fatal(err)
	}
	roomy := make([]byte, 3, len(want)+5)
	got := Response{Value: roomy}
	if err := DecodeResponse(fetch, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, want) || &got.Value[0] != &roomy[0] {
		t.Errorf("value fit a %d-byte buffer but did not land in it", cap(roomy))
	}
	short := make([]byte, len(want)-1)
	got = Response{Value: short}
	if err := DecodeResponse(fetch, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, want) || &got.Value[0] == &short[0] || !bytes.Equal(short, make([]byte, len(short))) {
		t.Errorf("value overran a %d-byte buffer: want a fresh slice and the buffer untouched", cap(short))
	}
	empty, err := AppendResponse(nil, &Response{OK: true, Found: true, Value: []byte{}})
	if err != nil {
		t.Fatal(err)
	}
	got = Response{Value: roomy}
	if err := DecodeResponse(empty, &got); err != nil {
		t.Fatal(err)
	}
	if got.Value != nil {
		t.Errorf("empty value decoded into a buffer as %d bytes (cap %d), want nil", len(got.Value), cap(got.Value))
	}
}

// TestBufferPool pins the zero-alloc checkout/return contract.
func TestBufferPool(t *testing.T) {
	allocs := testing.AllocsPerRun(200, func() {
		b := GetBuffer()
		b.B = append(b.B, "some frame bytes"...)
		PutBuffer(b)
	})
	if allocs > 0 {
		t.Errorf("buffer pool round trip allocates %.1f/op, want 0", allocs)
	}
	// Oversized buffers must be dropped, not retained.
	big := GetBuffer()
	big.B = make([]byte, maxPooledBuf+1)
	PutBuffer(big) // no way to observe directly; just must not panic
}
