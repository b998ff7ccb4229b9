// The windowed-parallel blob reader. One slow hop should not stall a
// stream: up to Window chunk Gets race ahead of the consumer over the
// pooled transport (the KV's replica fallback underneath each one), so
// sequential consumption overlaps the per-chunk lookup latency — the
// same parallel-RPC latency robustness the Kademlia analysis formalizes
// for multi-key reads. Every chunk is digest-checked against the
// manifest before the consumer sees a byte of it.
package blob

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"time"
)

// Reader reads one committed blob generation: the manifest is resolved
// once at Open, so the view is immutable even if the blob is rewritten
// mid-read (a garbage-collected chunk surfaces as ErrStale, never as a
// torn mix of generations).
//
// Reader implements io.Reader (sequential streaming with readahead),
// io.ReaderAt (stateless range reads, windowed-parallel across chunks)
// and io.Closer. Read is not safe for concurrent use; ReadAt is.
type Reader struct {
	s *Store
	m *Manifest

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // in-flight fetch goroutines

	// Sequential stream state: chunks [0, seq) are consumed, fetches
	// for [seq, next) are in flight in pending, cur holds the unread
	// remainder of chunk seq-1, and buf is that chunk's whole buffer,
	// handed to the next fetch to decode into once cur is used up.
	pending map[int]chan fetchRes
	next    int
	seq     int
	cur     []byte
	buf     []byte
	err     error
}

type fetchRes struct {
	data []byte
	err  error
}

// Open resolves name's current manifest and returns a reader over that
// generation. No chunk is fetched until the first Read/ReadAt, so
// opening is one KV Get.
func (s *Store) Open(ctx context.Context, name string) (*Reader, error) {
	m, err := s.Manifest(ctx, name)
	if err != nil {
		return nil, err
	}
	s.tel.reads.Inc()
	rctx, cancel := context.WithCancel(ctx)
	return &Reader{
		s:       s,
		m:       m,
		ctx:     rctx,
		cancel:  cancel,
		pending: make(map[int]chan fetchRes),
	}, nil
}

// Size returns the blob's byte length.
func (r *Reader) Size() int64 { return r.m.Size }

// Manifest returns the committed manifest this reader resolved.
func (r *Reader) Manifest() *Manifest { return r.m }

// Close cancels every in-flight chunk fetch and waits for them to
// release their transport slots; after Close returns, no fetch
// goroutine of this reader is running. Always nil.
func (r *Reader) Close() error {
	r.cancel()
	r.wg.Wait()
	return nil
}

// fetchChunk gets and verifies one chunk: one fetch straight to the
// manifest's owner hint when it has one, a routed KV Get (replica
// fallback included) otherwise, a length and digest check against the
// manifest, and one routed re-fetch on mismatch before declaring
// corruption. A hint that fails — unreachable, no copy, wrong bytes —
// costs that one exchange and counts in blob_hint_misses_total. An
// empty payload where bytes were committed is the GC tombstone of a
// replaced generation — ErrStale, the reader raced a rewrite. The
// chunk lands in dst's backing array when it has room (GetAt's
// append-style contract), in a fresh slice otherwise.
func (r *Reader) fetchChunk(ctx context.Context, seq int, dst []byte) ([]byte, error) {
	key := chunkKey(r.m.Name, r.m.Gen, seq)
	want := r.m.chunkLen(seq)
	hint := r.m.hint(seq)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		t0 := time.Now()
		val, route, err := r.s.node.GetAt(ctx, hint, key, dst)
		r.s.tel.chunkFetches.Inc()
		r.s.tel.fetchLatency.Observe(time.Since(t0).Microseconds())
		if hint != "" && !route.Hinted {
			r.s.tel.hintMisses.Inc()
		}
		if err != nil {
			return nil, fmt.Errorf("blob: %q chunk %d: %w", r.m.Name, seq, err)
		}
		if len(val) == 0 && want > 0 {
			return nil, fmt.Errorf("blob: %q chunk %d: %w", r.m.Name, seq, ErrStale)
		}
		if len(val) == want && sha256.Sum256(val) == r.m.Sums[seq] {
			return val, nil
		}
		if route.Hinted {
			r.s.tel.hintMisses.Inc() // the hint answered with the wrong bytes
		}
		hint = "" // the re-fetch routes
		lastErr = &IntegrityError{Name: r.m.Name, Seq: seq}
	}
	r.s.tel.integrity.Inc()
	return nil, lastErr
}

// start launches the prefetch of chunk seq into r.pending, decoding
// into dst when it has room.
func (r *Reader) start(seq int, dst []byte) {
	ch := make(chan fetchRes, 1)
	r.pending[seq] = ch
	r.wg.Add(1)
	r.s.tel.prefetch.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.s.tel.prefetch.Add(-1)
		data, err := r.fetchChunk(r.ctx, seq, dst)
		ch <- fetchRes{data: data, err: err}
	}()
}

// Read streams the blob sequentially, keeping up to Window chunk
// fetches in flight ahead of the consumption point. A Read that needs a
// chunk still in flight blocks for exactly that chunk; readahead keeps
// filling behind it. A consumed chunk's buffer is the next fetch's
// destination, so a stream holds at most Window+1 chunk buffers.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.cur) == 0 {
		if r.seq >= r.m.Count() {
			r.err = io.EOF
			return 0, io.EOF
		}
		// Top up the readahead window, then consume the next chunk.
		for r.next < r.m.Count() && r.next < r.seq+r.s.window {
			r.start(r.next, r.buf)
			r.buf = nil
			r.next++
		}
		ch := r.pending[r.seq]
		delete(r.pending, r.seq)
		res := <-ch
		if res.err != nil {
			r.err = res.err
			return 0, r.err
		}
		r.cur, r.buf = res.data, res.data
		r.seq++
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

// ReadAt fills p from offset off, fetching the covered chunks with at
// most Window Gets in flight; each chunk p covers whole is decoded
// straight into p, so it is copied once. It is stateless with respect
// to the sequential stream and safe for concurrent use. Fewer than
// len(p) bytes are returned only when the read crosses the end of the
// blob, in which case err is io.EOF.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("blob: negative offset %d", off)
	}
	if off >= r.m.Size {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	want := p
	short := false
	if max := r.m.Size - off; int64(len(p)) > max {
		want, short = p[:max], true
	}
	if len(want) == 0 {
		return 0, nil
	}
	first := int(off / int64(r.m.ChunkSize))
	last := int((off + int64(len(want)) - 1) / int64(r.m.ChunkSize))
	err := r.s.forEachChunk(r.ctx, last-first+1, func(ctx context.Context, i int) error {
		seq := first + i
		r.s.tel.prefetch.Add(1)
		defer r.s.tel.prefetch.Add(-1)
		// A chunk wholly inside want decodes straight into its span of
		// it, capped so that no value, however long, writes past the
		// span into a neighbour's; a chunk cut by either end of want
		// decodes into a fresh slice.
		chunkLo := int64(seq) * int64(r.m.ChunkSize)
		var dst []byte
		if a, b := chunkLo-off, chunkLo-off+int64(r.m.chunkLen(seq)); a >= 0 && b <= int64(len(want)) {
			dst = want[a:a:b]
		}
		data, ferr := r.fetchChunk(ctx, seq, dst)
		if ferr != nil {
			return ferr
		}
		// Intersect this chunk's span with [off, off+len(want)).
		lo, hi := int64(0), int64(len(data))
		if chunkLo < off {
			lo = off - chunkLo
		}
		if end := off + int64(len(want)); chunkLo+hi > end {
			hi = end - chunkLo
		}
		if out := want[chunkLo+lo-off:]; hi > lo && &out[0] != &data[lo] {
			copy(out, data[lo:hi]) // not decoded in place
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if short {
		return len(want), io.EOF
	}
	return len(want), nil
}

var (
	_ io.Reader   = (*Reader)(nil)
	_ io.ReaderAt = (*Reader)(nil)
	_ io.Closer   = (*Reader)(nil)
)
