package loadgen

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestStreamingMixRunsCleanOnMemnet(t *testing.T) {
	nodes := cluster(t, 42, 6, 10)
	rep, err := Run(Config{
		Nodes:       nodes,
		Seed:        7,
		Concurrency: 4,
		Streaming: &Streaming{
			Blobs:      4,
			BlobChunks: 8,
			ChunkSize:  2048,
			Window:     4,
			Sessions:   24,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "streaming" {
		t.Errorf("mode = %q, want streaming", rep.Mode)
	}
	st := rep.Streaming
	if st == nil {
		t.Fatal("streaming report section missing")
	}
	// Unpaced playout on the in-memory fabric is fully deterministic in
	// everything but timing: every session completes, every chunk reads
	// clean, nothing rebuffers, nothing fails integrity.
	if st.Sessions != 24 {
		t.Errorf("sessions = %d, want 24", st.Sessions)
	}
	if want := 24 * 8; st.Chunks != want || rep.Ops != want {
		t.Errorf("chunks = %d (ops %d), want %d", st.Chunks, rep.Ops, want)
	}
	if st.Errors != 0 || rep.Errors != 0 {
		t.Errorf("errors = %d/%d, want 0", st.Errors, rep.Errors)
	}
	if st.Integrity != 0 {
		t.Errorf("integrity failures = %d, want 0", st.Integrity)
	}
	if st.Rebuffers != 0 || st.RebufferRate != 0 {
		t.Errorf("rebuffers = %d (rate %.3f), want 0", st.Rebuffers, st.RebufferRate)
	}
	if st.TTFBP50 <= 0 || st.TTFBP99 < st.TTFBP50 {
		t.Errorf("TTFB quantiles inconsistent: p50=%d p99=%d", st.TTFBP50, st.TTFBP99)
	}
	// Chunk scattering feeds the query-balance table: the fetch load
	// spreads across nodes rather than landing on one owner.
	busy := 0
	for _, l := range rep.Load {
		if l.Total > 0 {
			busy++
		}
	}
	if busy < len(nodes)/2 {
		t.Errorf("only %d of %d nodes carried load; chunks are not scattering", busy, len(nodes))
	}
}

// TestStreamingReportDeterministic pins the streaming report's
// deterministic surface: two identically seeded runs on identically
// seeded fabrics agree on everything but wall-clock timing.
func TestStreamingReportDeterministic(t *testing.T) {
	deterministic := func(rep *Report) *Report {
		c := *rep
		c.Duration, c.Throughput, c.P50, c.P95, c.P99 = 0, 0, 0, 0, 0
		c.PerOp = map[string]OpStats{}
		for k, s := range rep.PerOp {
			s.P50, s.P95, s.P99 = 0, 0, 0
			c.PerOp[k] = s
		}
		if rep.Streaming != nil {
			st := *rep.Streaming
			st.TTFBP50, st.TTFBP95, st.TTFBP99 = 0, 0, 0
			c.Streaming = &st
		}
		return &c
	}
	run := func() *Report {
		nodes := cluster(t, 99, 6, 8)
		rep, err := Run(Config{
			Nodes:       nodes,
			Seed:        11,
			Zipf:        1.4,
			Concurrency: 3,
			Streaming:   &Streaming{Blobs: 3, BlobChunks: 6, ChunkSize: 1024, Window: 2, Sessions: 12},
		})
		if err != nil {
			t.Fatal(err)
		}
		return deterministic(rep)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("streaming reports differ across identically seeded runs:\n%+v\n%+v", a, b)
	}
}

func TestStreamingReportFormat(t *testing.T) {
	nodes := cluster(t, 23, 5, 4)
	rep, err := Run(Config{
		Nodes:       nodes,
		Seed:        2,
		Concurrency: 2,
		Streaming:   &Streaming{Blobs: 2, BlobChunks: 4, ChunkSize: 512, Window: 2, Sessions: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	for _, want := range []string{
		"mode=streaming", "streaming: sessions=6", "integrity_failures=0",
		"rebuffers=0", "ttfb p50=", "chunk", "query load per node",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted streaming report missing %q:\n%s", want, out)
		}
	}
}
