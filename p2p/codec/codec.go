// Package codec defines the wire envelope types shared by every
// connection of the p2p layer and the two encodings they travel in:
//
//   - v1, newline-delimited JSON — the seed protocol, kept verbatim for
//     interoperability with older peers;
//   - v2, a compact length-prefixed binary layout (binary.go) built on
//     stdlib encoding/binary only, with fixed-width fields, presence
//     bitmaps for optional pointers and small code tables for the
//     protocol's enumerated strings.
//
// Which encoding a connection speaks is decided per connection by its
// opening bytes (see the Preamble* constants): servers auto-detect, and
// clients in Auto mode try binary first and remember, per peer, when the
// other side turned out to speak only v1. The package also carries the
// supporting machinery both codecs' hot paths share — size-classed
// pools of encode/decode buffers (Buffer) and a bounded string interner that
// makes repeated wire strings (peer addresses, hot keys) decode without
// allocating.
package codec

import (
	"errors"
	"sync"
)

// Codec identifies one of the two wire encodings.
type Codec uint8

const (
	// Auto is not an encoding: it selects binary with per-peer fallback
	// to JSON when the peer rejects the v2 preamble.
	Auto Codec = iota
	// JSON is the v1 encoding: newline-delimited encoding/json.
	JSON
	// Binary is the v2 encoding: length-prefixed fixed-width binary.
	Binary
)

// String returns the flag spelling of the codec selection.
func (c Codec) String() string {
	switch c {
	case JSON:
		return "json"
	case Binary:
		return "binary"
	default:
		return "auto"
	}
}

// Parse maps a -wire-codec flag value onto a Codec selection.
func Parse(s string) (Codec, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "json":
		return JSON, nil
	case "binary":
		return Binary, nil
	}
	return Auto, errors.New("codec: unknown wire codec " + s + " (want auto, json or binary)")
}

// Connection preambles. All three are exactly PreambleLen bytes so a
// server classifies any connection with a single Peek: a v1 pooled
// stream, a v2 pooled stream, a v2 one-shot request — anything else is
// a legacy one-shot JSON request (which always starts with '{').
//
// Negotiation rides on the preamble alone: a v2 mux client waits for
// the server to echo PreambleMuxV2 before sending frames. A v1-only
// server instead tries to parse the preamble as a JSON request, fails,
// and closes the connection without writing a byte — the client reads a
// clean EOF and falls back to v1 for that peer. One-shot v2 requests
// need no ack round trip: the binary response itself is the proof, and
// the same clean-EOF signature triggers the same per-peer fallback.
const (
	PreambleMuxV1 = "CYCLOID-MUX/1\n" // v1 multiplexed stream (JSON envelopes)
	PreambleMuxV2 = "CYCLOID-MUX/2\n" // v2 multiplexed stream (binary frames)
	PreambleBinV2 = "CYCLOID-BIN/2\n" // v2 one-shot request (one binary frame each way)
	PreambleLen   = len(PreambleMuxV1)
)

// ErrTruncated reports a binary payload that ended before its declared
// field lengths were satisfied.
var ErrTruncated = errors.New("codec: truncated binary payload")

// Buffer size classes, one shared sync.Pool each. Every pooled buffer
// covers its class's size (small ones: at least smallBufNew), so a
// 64 KiB blob chunk and a 178-byte routing step never compete for — or
// evict — each other's buffers, and retention is bounded by frames in
// flight (sync.Pool drops idle buffers across garbage collections)
// rather than by connection count.
//
//   - small (≤ SmallBuf): envelopes, routing steps, manifests; new
//     buffers start at smallBufNew and may grow up to SmallBuf;
//   - chunk: one default-size blob chunk (64 KiB) plus its envelope,
//     with room to coalesce a few small frames beside it;
//   - batch: a few chunk frames coalesced into one write;
//   - max: one frame at the default 1 MiB cap plus its framing.
//
// A buffer grown past a class boundary by append is returned to the
// largest class it fully covers; one that covers no class above small
// (16–68 KiB), or exceeds the largest, is left to the collector.
const (
	SmallBuf     = 16 << 10
	smallBufNew  = 4 << 10
	maxPooledBuf = 1<<20 + 64<<10
)

var bufClasses = [...]int{SmallBuf, 68 << 10, 272 << 10, maxPooledBuf}

var bufPools [len(bufClasses)]sync.Pool

// classFor returns the smallest class holding n bytes, or -1 when n
// exceeds every class.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// Buffer is a reusable encode/decode byte buffer. Get one with
// GetBuffer (or GetBufferSize when the frame size is known), use B
// (appending or resizing freely), and return it with PutBuffer once no
// decoded value aliases it. Pools store *Buffer, so checkout and
// return are allocation-free.
type Buffer struct{ B []byte }

// GetBuffer checks a small-class buffer out of the shared pools,
// length 0.
func GetBuffer() *Buffer { return GetBufferSize(0) }

// GetBufferSize checks out a buffer of length 0 and capacity at least
// n from the smallest class that holds n. A size beyond every class is
// served by a one-off allocation that PutBuffer will not retain.
func GetBufferSize(n int) *Buffer {
	c := classFor(n)
	if c < 0 {
		return &Buffer{B: make([]byte, 0, n)}
	}
	b, _ := bufPools[c].Get().(*Buffer)
	if b == nil {
		b = &Buffer{}
	}
	// Pooled buffers cover their class, except small ones, which hold
	// anything from smallBufNew up to SmallBuf.
	size := bufClasses[c]
	if c == 0 {
		size = max(n, smallBufNew)
	}
	if cap(b.B) < size {
		b.B = make([]byte, 0, size)
	}
	b.B = b.B[:0]
	return b
}

// PutBuffer returns a buffer to the largest class its capacity fully
// covers. Buffers that cover no class (below a new small buffer,
// between small and chunk, or beyond the largest) are dropped for the
// garbage collector.
func PutBuffer(b *Buffer) {
	if b == nil || cap(b.B) < smallBufNew || cap(b.B) > maxPooledBuf {
		return
	}
	c := len(bufClasses) - 1
	for c > 0 && cap(b.B) < bufClasses[c] {
		c--
	}
	if c == 0 && cap(b.B) > SmallBuf {
		return // grown past small, short of chunk
	}
	bufPools[c].Put(b)
}

// intern is a bounded global string cache. Wire strings with small
// live cardinality — peer addresses, hot keys — hit the read-locked
// fast path and decode with zero allocations; once the cache is full,
// new strings are simply allocated without being cached, so adversarial
// traffic can cost speed but never unbounded memory.
var (
	internMu  sync.RWMutex
	interned  = make(map[string]string)
	internCap = 4096
)

// Intern returns b as a string, reusing a previously-returned string
// with the same bytes when one is cached.
func Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	internMu.RLock()
	s, ok := interned[string(b)] // no allocation: map lookup by converted key
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(interned) < internCap {
		interned[s] = s
	}
	internMu.Unlock()
	return s
}
