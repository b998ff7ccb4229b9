package telemetry

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateSpans = flag.Bool("update", false, "rewrite golden files")

// syntheticSpans builds a deterministic two-trace span set: one complete
// get (two calls, two server spans, one with disk time) and one forced
// shed trace with a detached server span whose parent call was lost.
func syntheticSpans() []*Span {
	ms := int64(time.Millisecond)
	return []*Span{
		// Trace 00..01|00..02: a complete cross-node get.
		{TraceHi: 1, TraceLo: 2, ID: 100, Kind: SpanClient, Name: "get", Key: "alpha",
			Node: "n1:1", Start: 0, Duration: 10 * ms, Calls: 2},
		{TraceHi: 1, TraceLo: 2, ID: 101, Parent: 100, Kind: SpanCall, Name: "step",
			Node: "n1:1", Peer: "n2:1", Start: 1 * ms, Duration: 3 * ms},
		{TraceHi: 1, TraceLo: 2, ID: 110, Parent: 101, Kind: SpanServer, Name: "step",
			Node: "n2:1", Start: 0, Duration: 2 * ms, Queue: 1 * ms},
		{TraceHi: 1, TraceLo: 2, ID: 102, Parent: 100, Kind: SpanCall, Name: "fetch",
			Node: "n1:1", Peer: "n3:1", Start: 5 * ms, Duration: 4 * ms},
		{TraceHi: 1, TraceLo: 2, ID: 120, Parent: 102, Kind: SpanServer, Name: "fetch",
			Node: "n3:1", Start: 0, Duration: 3 * ms, Disk: 1 * ms},
		// Trace 00..03|00..04: a shed store whose server span survived a
		// collector that never saw the caller's buffer.
		{TraceHi: 3, TraceLo: 4, ID: 200, Kind: SpanClient, Name: "put", Key: "beta",
			Node: "n1:1", Start: 0, Duration: 2 * ms, Calls: 1,
			Annotations: []string{"shed", "late"}, Err: "p2p: n2:1 is overloaded (retry after 5ms)"},
		{TraceHi: 3, TraceLo: 4, ID: 201, Parent: 200, Kind: SpanCall, Name: "store",
			Node: "n1:1", Peer: "n2:1", Start: 1 * ms, Duration: 1 * ms, Err: "busy"},
		{TraceHi: 3, TraceLo: 4, ID: 220, Parent: 999, Kind: SpanServer, Name: "store",
			Node: "n2:1", Start: 0, Duration: 0, Queue: 1 * ms, Annotations: []string{"shed"}},
	}
}

func TestSpanBufferWrap(t *testing.T) {
	b := NewSpanBuffer(4)
	for i := 0; i < 10; i++ {
		b.Add(&Span{ID: uint64(i + 1)})
	}
	got := b.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot returned %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(i + 7); s.ID != want {
			t.Errorf("slot %d: span ID %d, want %d (oldest-first after wrap)", i, s.ID, want)
		}
	}
	if b.Len() != 10 {
		t.Errorf("Len = %d, want 10", b.Len())
	}
	var nilBuf *SpanBuffer
	nilBuf.Add(&Span{ID: 1})
	if nilBuf.Snapshot() != nil || nilBuf.Len() != 0 {
		t.Error("nil SpanBuffer must discard and report empty")
	}
}

func TestBuildTreesAndAttribution(t *testing.T) {
	trees := BuildTrees(syntheticSpans())
	if len(trees) != 2 {
		t.Fatalf("BuildTrees returned %d trees, want 2", len(trees))
	}
	get := trees[0]
	if get.Root == nil || get.Root.Span.ID != 100 {
		t.Fatalf("first tree root = %+v, want span 100", get.Root)
	}
	if v := get.Check(false); len(v) != 0 {
		t.Fatalf("complete trace failed Check: %v", v)
	}
	a := get.Attribution()
	want := Attribution{
		Local:   3 * time.Millisecond, // 10ms root - (3+4)ms delegated to calls
		Network: 2 * time.Millisecond, // (3-2)ms step + (4-3)ms fetch
		Queue:   1 * time.Millisecond,
		Service: 3 * time.Millisecond, // (2-1)ms step + (3-1)ms fetch
		Disk:    1 * time.Millisecond,
	}
	if a != want {
		t.Errorf("Attribution = %+v, want %+v", a, want)
	}
	if a.Total() != time.Duration(get.Root.Span.Duration) {
		t.Errorf("attribution total %v != root duration %v", a.Total(), time.Duration(get.Root.Span.Duration))
	}

	shed := trees[1]
	if len(shed.Detached) != 1 || shed.Detached[0].Span.ID != 220 {
		t.Fatalf("shed tree detached = %+v, want span 220", shed.Detached)
	}
	if v := shed.Check(false); len(v) == 0 {
		t.Fatal("Check(false) accepted a trace with detached spans")
	}
	if v := shed.Check(true); len(v) != 0 {
		t.Fatalf("Check(true) rejected crash-tolerated detachment: %v", v)
	}
}

func TestCheckViolations(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []*Span{
		{TraceHi: 7, TraceLo: 7, ID: 1, Kind: SpanClient, Name: "get", Duration: ms, Calls: 2},
		{TraceHi: 7, TraceLo: 7, ID: 2, Parent: 1, Kind: SpanCall, Name: "step", Duration: ms},
	}
	trees := BuildTrees(spans)
	v := trees[0].Check(false)
	if len(v) != 1 || !strings.Contains(v[0], "issued 2 calls, 1 call spans") {
		t.Fatalf("call-count violation not reported: %v", v)
	}
	// A server span hanging directly under a client span is malformed.
	spans = append(spans, &Span{TraceHi: 7, TraceLo: 7, ID: 3, Parent: 1, Kind: SpanServer, Name: "step"})
	v = BuildTrees(spans)[0].Check(false)
	found := false
	for _, s := range v {
		if strings.Contains(s, "server span") && strings.Contains(s, "under client span") {
			found = true
		}
	}
	if !found {
		t.Fatalf("misplaced server span not reported: %v", v)
	}
}

func TestFormatTraceID(t *testing.T) {
	if got := FormatTraceID(1, 2); got != "00000000000000010000000000000002" {
		t.Fatalf("FormatTraceID = %q", got)
	}
	s := &Span{TraceHi: 0xdead, TraceLo: 0xbeef}
	if got := s.TraceID(); got != "000000000000dead000000000000beef" {
		t.Fatalf("Span.TraceID = %q", got)
	}
}

// TestDebugSpansGolden pins the two renderings of /debug/spans — the
// default text tree and ?format=json — against golden files, using the
// deterministic synthetic span set.
func TestDebugSpansGolden(t *testing.T) {
	buf := NewSpanBuffer(64)
	for _, s := range syntheticSpans() {
		buf.Add(s)
	}
	reg := NewRegistry("cycloid")
	h := Handler(reg, buf)

	for _, tc := range []struct {
		name, url, golden string
	}{
		{"text", "/debug/spans", "spans.golden"},
		{"json", "/debug/spans?format=json", "spans_json.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
			if rec.Code != 200 {
				t.Fatalf("status = %d", rec.Code)
			}
			path := filepath.Join("testdata", tc.golden)
			if *updateSpans {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s mismatch:\n got:\n%s\nwant:\n%s", tc.url, rec.Body.String(), want)
			}
		})
	}
	// Empty span buffer: JSON mode must still emit a well-formed doc.
	for _, empty := range []*SpanBuffer{nil, NewSpanBuffer(4)} {
		rec := httptest.NewRecorder()
		Handler(reg, empty).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans?format=json", nil))
		if s := strings.TrimSpace(rec.Body.String()); s != "null" && s != "[]" {
			t.Fatalf("empty spans JSON = %q", s)
		}
	}
}
