// The streaming mix: virtual viewers playing chunked blobs through
// p2p/blob at a fixed bitrate. Where the Put/Get/Lookup mixes exercise
// one key per operation, a viewer session touches every chunk key of a
// blob in sequence — the many-keys-per-object load shape the paper's
// congestion experiment (Figures 8–10) assumes — and is judged by the
// SLOs that matter for media delivery: time-to-first-byte and rebuffer
// events, a chunk arriving after its playout deadline.
//
// The playout model is the standard one: playback starts when the first
// chunk arrives (that wait is TTFB, not a rebuffer), then chunk i is
// due one chunk-duration after chunk i-1's playout. A late chunk counts
// one rebuffer and rebases the playout clock by its lateness — a
// stalled player resumes where it stalled; it does not owe the
// schedule the stall time forever.
package loadgen

import (
	"fmt"
	"math/rand"
	"time"

	"cycloid/internal/telemetry"
	"cycloid/p2p"
	"cycloid/p2p/blob"
)

// Streaming parameterizes the streaming mix. Zero values take the
// defaults noted per field.
type Streaming struct {
	// Blobs is the distinct blob population viewers draw from (with the
	// run's Zipf skew, blob 0 hottest). Default 8.
	Blobs int
	// BlobChunks is the length of every blob, in chunks. Default 16.
	BlobChunks int
	// ChunkSize is the blob layer's chunk payload size. Default 8 KiB.
	ChunkSize int
	// Window is the reader's prefetch window. Default 4.
	Window int
	// BitrateKBps is each viewer's playout bitrate in KiB/s: chunk i's
	// deadline falls i×(ChunkSize/bitrate) after playback start, and
	// the viewer paces its reads to that schedule. 0 disables pacing —
	// viewers pull as fast as the overlay serves, and no deadline
	// exists to miss. Default 0.
	BitrateKBps int
	// Sessions is the number of viewing sessions to play. Default 64.
	Sessions int
}

func (s *Streaming) defaults() {
	if s.Blobs == 0 {
		s.Blobs = 8
	}
	if s.BlobChunks == 0 {
		s.BlobChunks = 16
	}
	if s.ChunkSize == 0 {
		s.ChunkSize = 8 << 10
	}
	if s.Window == 0 {
		s.Window = 4
	}
	if s.Sessions == 0 {
		s.Sessions = 64
	}
}

// StreamStats is the streaming mix's section of the report.
type StreamStats struct {
	Sessions     int     `json:"sessions"`      // sessions played to the end
	Chunks       int     `json:"chunks"`        // chunk reads completed
	Errors       int     `json:"errors"`        // sessions that failed
	Rebuffers    int     `json:"rebuffers"`     // chunks past their playout deadline
	RebufferRate float64 `json:"rebuffer_rate"` // rebuffers per completed session
	TTFBP50      int64   `json:"ttfb_p50_us"`   // time to first byte, µs
	TTFBP95      int64   `json:"ttfb_p95_us"`
	TTFBP99      int64   `json:"ttfb_p99_us"`
	Integrity    uint64  `json:"integrity_failures"` // fleet-wide digest failures
}

// SessionStats tallies viewer sessions (OpBlobGet records): completed
// and failed sessions, chunks and rebuffers. A failed session never
// reached its end, so the rebuffer rate is per completed session.
func SessionStats(recs []Record) StreamStats {
	var st StreamStats
	for _, r := range recs {
		if r.Op != OpBlobGet {
			continue
		}
		st.Chunks += r.Chunks
		st.Rebuffers += r.Rebuffers
		if r.Err != nil {
			st.Errors++
		} else {
			st.Sessions++
		}
	}
	if st.Sessions > 0 {
		st.RebufferRate = float64(st.Rebuffers) / float64(st.Sessions)
	}
	return st
}

// runStreaming executes the streaming mix: provision the blob
// population (outside the measure window), then play Sessions viewer
// sessions with Concurrency concurrent viewers, and report the usual
// per-node query-load table plus the streaming SLOs. All randomness is
// pregenerated from cfg.Seed, so on a deterministic fabric the session
// sequence, chunk counts and outcomes repeat exactly.
func runStreaming(h *History, cfg Config) (*Report, error) {
	st := *cfg.Streaming
	st.defaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("loadgen: no nodes")
	}
	if cfg.Concurrency == 0 {
		cfg.Concurrency = 8
	}
	if cfg.Zipf != 0 && cfg.Zipf <= 1 {
		return nil, fmt.Errorf("loadgen: zipf skew must be > 1 (or 0 for uniform), got %v", cfg.Zipf)
	}

	// Pregenerate blob contents and the session sequence from the seed,
	// single-threaded. Sessions originate anywhere, like the other
	// mixes' operations.
	rng := rand.New(rand.NewSource(cfg.Seed))
	provision := make([]Step, st.Blobs)
	for i := range provision {
		content := make([]byte, st.BlobChunks*st.ChunkSize)
		rng.Read(content)
		provision[i] = Step{Op: OpBlobPut, Node: cfg.Nodes[i%len(cfg.Nodes)], Key: fmt.Sprintf("stream-%d-%d", cfg.Seed, i), Value: content}
	}
	var zipf *rand.Zipf
	if cfg.Zipf > 1 {
		zipf = rand.NewZipf(rng, cfg.Zipf, 1, uint64(st.Blobs-1))
	}
	sessions := make([]Step, st.Sessions)
	for i := range sessions {
		b := rng.Intn(st.Blobs)
		if zipf != nil {
			b = int(zipf.Uint64())
		}
		sessions[i] = Step{Op: OpBlobGet, Node: cfg.Nodes[rng.Intn(len(cfg.Nodes))], Key: provision[b].Key}
	}

	reg := telemetry.NewRegistry("loadgen")
	x := &Exec{
		History:  h,
		Timeout:  cfg.OpTimeout,
		Blob:     blob.Options{ChunkSize: st.ChunkSize, Window: st.Window},
		Bitrate:  st.BitrateKBps,
		chunkLat: reg.Histogram("chunk_latency_us", "Per-chunk read latency.", telemetry.LatencyBucketsUS),
	}
	// Provision the population outside the measure window.
	unbounded := &Exec{History: h, Blob: x.Blob}
	for _, s := range provision {
		if rec := unbounded.Do(0, s); rec.Err != nil {
			return nil, fmt.Errorf("loadgen: provision blob %q: %w", s.Key, rec.Err)
		}
	}
	integBefore := sumCounter(cfg.Nodes, "cycloid_blob_integrity_failures_total")

	before := snapshotLoads(cfg.Nodes)
	began := time.Now()
	recs := make([]Record, len(sessions))
	closedLoop(cfg.Concurrency, len(sessions), func(client, i int) { recs[i] = x.Do(client, sessions[i]) })
	took := time.Since(began)
	after := snapshotLoads(cfg.Nodes)

	ttfb := reg.Histogram("ttfb_us", "Time to first byte per session.", telemetry.LatencyBucketsUS)
	for _, r := range recs {
		if r.Chunks > 0 {
			ttfb.Observe(r.TTFB.Microseconds())
		}
	}
	ss := SessionStats(recs)
	ss.TTFBP50, ss.TTFBP95, ss.TTFBP99 = ttfb.Quantile(0.50), ttfb.Quantile(0.95), ttfb.Quantile(0.99)
	ss.Integrity = sumCounter(cfg.Nodes, "cycloid_blob_integrity_failures_total") - integBefore
	chunk := OpStats{
		Ops: ss.Chunks, Errors: ss.Errors,
		P50: x.chunkLat.Quantile(0.50), P95: x.chunkLat.Quantile(0.95), P99: x.chunkLat.Quantile(0.99),
	}
	rep := &Report{
		Mode:       "streaming",
		Nodes:      len(cfg.Nodes),
		Ops:        chunk.Ops,
		Errors:     chunk.Errors,
		Duration:   took,
		Throughput: float64(chunk.Ops) / took.Seconds(),
		P50:        chunk.P50,
		P95:        chunk.P95,
		P99:        chunk.P99,
		PerOp:      map[string]OpStats{"chunk": chunk},
		Streaming:  &ss,
	}
	fillLoad(rep, cfg.Nodes, before, after)
	return rep, nil
}

// sumCounter totals one counter family across every node's registry.
func sumCounter(nodes []*p2p.Node, name string) uint64 {
	var sum uint64
	for _, nd := range nodes {
		sum += nd.Telemetry().CounterValue(name)
	}
	return sum
}
