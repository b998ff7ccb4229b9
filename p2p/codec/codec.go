// Package codec defines the wire envelope types of the p2p layer and
// their one encoding: a compact length-prefixed binary layout
// (binary.go) built on stdlib encoding/binary only, with fixed-width
// fields, presence bitmaps for optional pointers and small code tables
// for the protocol's enumerated strings. Every connection opens with
// PreambleMuxV2 and then carries these messages in CYCLOID-MUX/2
// frames (see p2p/pool). The package also carries the machinery the
// hot paths share — size-classed pools of encode/decode buffers
// (Buffer) and a bounded string interner that makes repeated wire
// strings (peer addresses, hot keys) decode without allocating.
package codec

import (
	"errors"
	"sync"
)

// Codec names a wire encoding. Binary is the only one; Auto, the zero
// value, means the same.
//
// Deprecated: kept so existing callers of pool.Config.Codec compile;
// the pool ignores it.
type Codec uint8

const (
	// Auto is the zero value and selects Binary.
	Auto Codec = iota
	// Binary is the length-prefixed fixed-width binary encoding.
	Binary
)

// Connection preamble. A pooled connection opens with PreambleMuxV2
// and the server echoes it as the handshake ack before any frame
// flows; a server closes a connection that opens with anything else.
const (
	PreambleMuxV2 = "CYCLOID-MUX/2\n"
	PreambleLen   = len(PreambleMuxV2)
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
