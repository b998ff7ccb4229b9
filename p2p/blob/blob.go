// Package blob is a chunked large-object layer over the p2p key/value
// store. A blob is split into fixed-size chunks, each stored under a
// key derived by hashing (name, generation, seq) — so consistent
// hashing scatters one object's chunks across the whole cyclic ID
// space, the many-keys-per-object load shape behind the paper's
// query-balance results (Figures 8–10) — plus one manifest key naming
// the blob's size, chunking geometry, generation and per-chunk SHA-256.
//
// Commit protocol: writes put every chunk first and the manifest last.
// The manifest is the only mutable key per blob; its owner-assigned
// version (last-writer-wins, like any KV key) decides which generation
// is current, and because each generation's chunks live under fresh
// keys, a reader that resolved a manifest always finds exactly that
// generation's chunks — never a torn mix of old and new. Replaced
// generations are garbage-collected after the commit by overwriting
// their chunk keys with empty tombstones; a straggling reader of the
// replaced generation observes ErrStale, not silent corruption.
//
// Reads are windowed-parallel: a bounded number of chunk Gets race over
// the pooled transport ahead of the consumer (see reader.go), each
// integrity-checked against the manifest digest, with the KV's replica
// fallback underneath handling owner crashes. The manifest also names
// the node that acknowledged each chunk's Put; chunk reads and the
// garbage collection of a replaced generation go straight there,
// skipping the O(d) route, and fall back to routing when that owner
// hint has gone stale.
package blob

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"cycloid/internal/telemetry"
	"cycloid/p2p"
)

// Default geometry. DefaultChunkSize comfortably fits the default 1 MiB
// wire frame; DefaultWindow keeps enough chunk Gets in flight to hide per-hop
// latency without monopolizing the pool's per-peer budget.
const (
	DefaultChunkSize = 64 << 10
	DefaultWindow    = 8

	// envelopeOverhead is the worst-case wire framing around one chunk
	// payload: frame header, envelope fields, the chunk key. Deliberately
	// generous — it prices the frame-fit validation, not the encoding.
	envelopeOverhead = 1024

	// maxNameLen bounds blob names to what the manifest encoding's u16
	// length field carries.
	maxNameLen = 1<<16 - 1
)

// Options parameterizes a Store.
type Options struct {
	// ChunkSize is the fixed chunk payload size. Default 64 KiB. It is
	// validated against the node's wire-frame cap at construction: a
	// chunk plus envelope overhead must fit one frame.
	ChunkSize int
	// Window bounds the chunk Gets a reader keeps in flight ahead of
	// the consumer (and the chunk Puts a writer keeps in flight).
	// 1 disables readahead — strictly sequential fetch. Default 8.
	Window int
}

// ChunkSizeError reports an Options.ChunkSize that cannot ride the
// node's wire frames: the typed construction-time answer to what would
// otherwise surface as a frame-too-large wire error on the first Put.
type ChunkSizeError struct {
	ChunkSize int // the requested chunk size
	MaxFrame  int // the node's wire-frame cap
	MaxChunk  int // the largest chunk size that cap admits
}

func (e *ChunkSizeError) Error() string {
	return fmt.Sprintf("blob: chunk size %d exceeds %d, the largest payload fitting a %d-byte wire frame (envelope overhead plus worst-case codec expansion)",
		e.ChunkSize, e.MaxChunk, e.MaxFrame)
}

// ErrStale reports a chunk that was garbage-collected out from under a
// reader: the blob was rewritten after the reader resolved its
// manifest. Re-opening the blob observes the current generation.
var ErrStale = errors.New("blob: generation replaced during read")

// IntegrityError reports a chunk whose payload did not match the
// manifest digest even after a re-fetch — corruption, not churn.
type IntegrityError struct {
	Name string
	Seq  int
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("blob: %q chunk %d failed integrity check", e.Name, e.Seq)
}

// metrics is the blob layer's instrument set, registered on the node's
// registry so blob traffic scrapes alongside the wire and store
// metrics it rides on.
type metrics struct {
	reads        *telemetry.Counter
	writes       *telemetry.Counter
	chunkFetches *telemetry.Counter
	hintMisses   *telemetry.Counter
	integrity    *telemetry.Counter
	rebuffers    *telemetry.Counter
	prefetch     *telemetry.Gauge
	fetchLatency *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		reads:        reg.Counter("blob_reads_total", "Blob read sessions opened."),
		writes:       reg.Counter("blob_writes_total", "Blob writes committed (manifest Put acknowledged)."),
		chunkFetches: reg.Counter("blob_chunk_fetches_total", "Chunk Gets issued by blob readers."),
		hintMisses:   reg.Counter("blob_hint_misses_total", "Chunk exchanges whose manifest owner hint failed and fell back to a routed lookup."),
		integrity:    reg.Counter("blob_integrity_failures_total", "Chunks failing the manifest digest check after re-fetch."),
		rebuffers:    reg.Counter("blob_rebuffers_total", "Streaming playout stalls: chunks that missed their deadline."),
		prefetch:     reg.Gauge("blob_prefetch_depth", "Chunk fetches currently in flight ahead of consumers."),
		fetchLatency: reg.Histogram("blob_chunk_fetch_latency_us", "Chunk fetch latency (one KV Get plus integrity check).", telemetry.LatencyBucketsUS),
	}
}

// Store is the blob API bound to one node. It is a thin, stateless
// layer — all durability and replication come from the KV underneath —
// so any node of the overlay can construct one and read or write any
// blob. Safe for concurrent use.
type Store struct {
	node      *p2p.Node
	chunkSize int
	window    int
	tel       *metrics
}

// New binds a blob store to a node, validating the chunk geometry
// against the node's wire-frame cap (see ChunkSizeError).
func New(node *p2p.Node, opt Options) (*Store, error) {
	if opt.ChunkSize == 0 {
		opt.ChunkSize = DefaultChunkSize
	}
	if opt.Window == 0 {
		opt.Window = DefaultWindow
	}
	if opt.ChunkSize < 1 {
		return nil, fmt.Errorf("blob: chunk size %d out of range", opt.ChunkSize)
	}
	if opt.Window < 1 {
		return nil, fmt.Errorf("blob: window %d out of range", opt.Window)
	}
	// The binary codec carries the payload verbatim, so a chunk fits
	// one frame beside its envelope.
	maxChunk := node.MaxFrame() - envelopeOverhead
	if opt.ChunkSize > maxChunk {
		return nil, &ChunkSizeError{ChunkSize: opt.ChunkSize, MaxFrame: node.MaxFrame(), MaxChunk: maxChunk}
	}
	return &Store{
		node:      node,
		chunkSize: opt.ChunkSize,
		window:    opt.Window,
		tel:       newMetrics(node.Telemetry()),
	}, nil
}

// ChunkSize returns the store's fixed chunk payload size.
func (s *Store) ChunkSize() int { return s.chunkSize }

// manifestKey is the one mutable KV key per blob name.
func manifestKey(name string) string { return "blob:m:" + name }

// chunkKey derives the KV key of chunk seq of generation gen: a hash of
// (name, gen, seq), so consistent hashing scatters a blob's chunks
// uniformly over the ID space and each generation lands on fresh keys.
func chunkKey(name string, gen uint64, seq int) string {
	h := sha256.New()
	var num [16]byte
	binary.BigEndian.PutUint64(num[:8], gen)
	binary.BigEndian.PutUint64(num[8:], uint64(seq))
	h.Write([]byte(name))
	h.Write(num[:])
	sum := h.Sum(nil)
	return "blob:c:" + hex.EncodeToString(sum[:16])
}

// Manifest resolves the current manifest of name. p2p.ErrNotFound means
// no committed blob exists under that name.
func (s *Store) Manifest(ctx context.Context, name string) (*Manifest, error) {
	val, _, err := s.node.GetContext(ctx, manifestKey(name))
	if err != nil {
		return nil, err
	}
	m, err := DecodeManifest(val)
	if err != nil {
		return nil, fmt.Errorf("%w (blob %q)", err, name)
	}
	return m, nil
}

// Put writes data as blob name and commits it: chunks first (a bounded
// window of parallel Puts), the manifest last, then best-effort
// garbage collection of the generation it replaced. Once Put returns
// nil the blob is committed — every subsequent Open observes this
// generation in full — and the KV's replication and durability
// guarantees apply to every chunk and the manifest alike.
func (s *Store) Put(ctx context.Context, name string, data []byte) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("blob: invalid name length %d", len(name))
	}
	gen, oldCount := uint64(1), 0
	old, err := s.Manifest(ctx, name)
	switch {
	case err == nil:
		gen, oldCount = old.Gen+1, old.Count()
	case errors.Is(err, p2p.ErrNotFound):
	case errors.Is(err, ErrBadManifest):
		// An undecodable manifest should not brick the name forever;
		// overwrite it as generation 1.
	default:
		return err
	}

	m := &Manifest{Name: name, Size: int64(len(data)), ChunkSize: s.chunkSize, Gen: gen}
	count := chunkCount(m.Size, m.ChunkSize)
	m.Sums = make([]Digest, count)
	for seq := 0; seq < count; seq++ {
		m.Sums[seq] = sha256.Sum256(s.chunkData(data, seq))
	}
	if count > 0 {
		m.Hints = make([]string, count)
	}

	// Each chunk Put records the node that acknowledged it: the owner
	// hint readers and the next rewrite's garbage collection go to
	// directly. Goroutines write disjoint entries.
	if err := s.forEachChunk(ctx, count, func(cctx context.Context, seq int) error {
		r, err := s.node.PutAt(cctx, "", chunkKey(name, gen, seq), s.chunkData(data, seq))
		m.Hints[seq] = r.Addr
		return err
	}); err != nil {
		return fmt.Errorf("blob: put %q: %w", name, err)
	}
	if err := s.node.PutContext(ctx, manifestKey(name), m.Encode()); err != nil {
		return fmt.Errorf("blob: commit %q: %w", name, err)
	}
	s.tel.writes.Inc()

	// The replaced generation is unreachable from the new manifest;
	// reclaim its payload bytes by overwriting each old chunk key with
	// an empty tombstone, sent straight to the owner the old manifest
	// names. Best-effort: a failure leaves garbage, never an
	// inconsistent blob.
	if oldCount > 0 {
		_ = s.forEachChunk(ctx, oldCount, func(cctx context.Context, seq int) error {
			hint := old.hint(seq)
			r, err := s.node.PutAt(cctx, hint, chunkKey(name, old.Gen, seq), nil)
			if hint != "" && !r.Hinted {
				s.tel.hintMisses.Inc()
			}
			return err
		})
	}
	return nil
}

// chunkData returns chunk seq's payload slice of data.
func (s *Store) chunkData(data []byte, seq int) []byte {
	lo := seq * s.chunkSize
	hi := lo + s.chunkSize
	if hi > len(data) {
		hi = len(data)
	}
	return data[lo:hi]
}

// forEachChunk runs f for every seq in [0, count) with at most
// s.window calls in flight, canceling the rest on the first error.
func (s *Store) forEachChunk(ctx context.Context, count int, f func(ctx context.Context, seq int) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, s.window)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for seq := 0; seq < count; seq++ {
		select {
		case sem <- struct{}{}:
		case <-cctx.Done():
			seq = count // a chunk failed; stop launching
			continue
		}
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := f(cctx, seq); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("chunk %d: %w", seq, err)
				}
				mu.Unlock()
				cancel()
			}
		}(seq)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr == nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return firstErr
}

// Get reads the whole blob: Open plus a windowed-parallel fetch of
// every chunk, each decoded straight into the result (see ReadAt).
func (s *Store) Get(ctx context.Context, name string) ([]byte, error) {
	r, err := s.Open(ctx, name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]byte, r.Size())
	if _, err := r.ReadAt(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// RecordRebuffer counts one streaming playout stall against the blob
// telemetry. The playout model (deadlines, buffer levels) lives in the
// workload drivers; the counter lives here so rebuffers scrape
// alongside the fetch metrics that explain them.
func (s *Store) RecordRebuffer() { s.tel.rebuffers.Inc() }
