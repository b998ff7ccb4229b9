// The blob manifest: the one small value that makes a pile of scattered
// chunks read back as a single consistent object. A manifest commits a
// blob — readers resolve the manifest key first and then fetch exactly
// the generation of chunks it names, integrity-checked against the
// per-chunk digests it carries, so a writer replacing a blob never
// produces a torn read: until the new manifest lands, every reader sees
// the old generation in full.
//
// The encoding is the wire codec's idiom — fixed-width fields,
// stdlib encoding/binary, length-validated decode — rather than JSON:
// manifests ride the KV as opaque values and are decoded on every blob
// open, so they get the same compact, allocation-conscious treatment as
// the envelopes underneath them.
package blob

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Manifest magics: "CBM" + format version. CBM1 is the original
// layout; CBM2 appends per-chunk owner hints. Both decode, so values
// written by older builds (and durable stores full of them) still read.
const (
	magicV1  = "CBM1"
	magicV2  = "CBM2"
	magicLen = len(magicV2)

	// noHint is the owner index of a chunk whose owner is unknown.
	noHint = 0xFFFF
)

// Digest is one chunk's SHA-256.
type Digest = [sha256.Size]byte

// Manifest describes one committed blob generation: its identity, its
// chunking geometry, and the digest of every chunk. len(Sums) is the
// chunk count; Gen is the blob generation the chunk keys are derived
// from (each rewrite bumps it, so new chunks land on fresh keys and the
// replaced generation can be garbage-collected without racing readers
// onto half-written data).
//
// Hints[seq], when present, is the address of the node that
// acknowledged chunk seq's Put ("" = unknown): readers and the garbage
// collector send that chunk's exchange straight there instead of
// routing. Hints are advisory — the chunk key and digest, not the hint,
// decide what is read — so a stale one costs one exchange, never a
// wrong byte. Hints is nil (no hints, the CBM1 encoding) or has one
// entry per chunk.
type Manifest struct {
	Name      string
	Size      int64
	ChunkSize int
	Gen       uint64
	Sums      []Digest
	Hints     []string
}

// Count returns the number of chunks.
func (m *Manifest) Count() int { return len(m.Sums) }

// hint returns chunk seq's owner hint, "" when unknown.
func (m *Manifest) hint(seq int) string {
	if seq < len(m.Hints) {
		return m.Hints[seq]
	}
	return ""
}

// chunkLen returns the payload length of chunk seq: ChunkSize for every
// chunk but possibly the last.
func (m *Manifest) chunkLen(seq int) int {
	if rem := m.Size - int64(seq)*int64(m.ChunkSize); rem < int64(m.ChunkSize) {
		return int(rem)
	}
	return m.ChunkSize
}

// ErrBadManifest reports a manifest value that failed to decode —
// truncated, inconsistent, or not a manifest at all.
var ErrBadManifest = errors.New("blob: malformed manifest")

// chunkCount returns the chunk count implied by (size, chunkSize).
func chunkCount(size int64, chunkSize int) int {
	if size == 0 {
		return 0
	}
	return int((size + int64(chunkSize) - 1) / int64(chunkSize))
}

// Encode renders the manifest in its fixed-width binary layout:
//
//	magic "CBM2" | u32 chunkSize | u64 size | u64 gen |
//	u16 nameLen | name | u32 count | count × 32-byte SHA-256 |
//	u16 owners | owners × (u16 len | address) |
//	count × u16 owner index (0xFFFF = unknown)
//
// The owner table names each distinct acknowledging node once, so a
// hint costs two bytes per chunk: a 1 GiB blob of 64 KiB chunks still
// encodes in about 545 KiB, inside one wire frame. A manifest without
// hints encodes as CBM1 — the same layout without the owner section.
func (m *Manifest) Encode() []byte {
	size := magicLen + 4 + 8 + 8 + 2 + len(m.Name) + 4 + len(m.Sums)*sha256.Size
	magic := magicV1
	var owners []string
	var index []uint16
	if len(m.Hints) > 0 {
		magic = magicV2
		owners, index = m.ownerTable()
		size += 2 + 2*len(index)
		for _, o := range owners {
			size += 2 + len(o)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint32(out, uint32(m.ChunkSize))
	out = binary.BigEndian.AppendUint64(out, uint64(m.Size))
	out = binary.BigEndian.AppendUint64(out, m.Gen)
	out = binary.BigEndian.AppendUint16(out, uint16(len(m.Name)))
	out = append(out, m.Name...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Sums)))
	for i := range m.Sums {
		out = append(out, m.Sums[i][:]...)
	}
	if magic == magicV1 {
		return out
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(owners)))
	for _, o := range owners {
		out = binary.BigEndian.AppendUint16(out, uint16(len(o)))
		out = append(out, o...)
	}
	for _, i := range index {
		out = binary.BigEndian.AppendUint16(out, i)
	}
	return out
}

// ownerTable interns the hints into a table of distinct addresses in
// first-use order plus one index per chunk. Addresses that do not fit
// the encoding (empty, longer than a u16 length, beyond the table's
// u16 capacity) are recorded as unknown.
func (m *Manifest) ownerTable() ([]string, []uint16) {
	var owners []string
	slot := make(map[string]uint16)
	index := make([]uint16, len(m.Sums))
	for seq := range index {
		h := m.hint(seq)
		i, ok := slot[h]
		switch {
		case ok:
		case h == "" || len(h) > math.MaxUint16 || len(owners) >= noHint:
			i = noHint
		default:
			i = uint16(len(owners))
			slot[h] = i
			owners = append(owners, h)
		}
		index[seq] = i
	}
	return owners, index
}

// DecodeManifest parses an encoded manifest (CBM1 or CBM2), validating
// every declared length against the bytes actually present, the chunk
// count against the (size, chunkSize) geometry and every owner index
// against the owner table — a decoded manifest is always internally
// consistent, so readers can trust its arithmetic.
func DecodeManifest(b []byte) (*Manifest, error) {
	if len(b) < magicLen+4+8+8+2 {
		return nil, ErrBadManifest
	}
	v2 := string(b[:magicLen]) == magicV2
	if !v2 && string(b[:magicLen]) != magicV1 {
		return nil, ErrBadManifest
	}
	b = b[magicLen:]
	chunkSize := int(binary.BigEndian.Uint32(b))
	size := binary.BigEndian.Uint64(b[4:])
	gen := binary.BigEndian.Uint64(b[12:])
	nameLen := int(binary.BigEndian.Uint16(b[20:]))
	b = b[22:]
	if chunkSize <= 0 || size > 1<<62 {
		return nil, fmt.Errorf("%w: chunkSize=%d size=%d", ErrBadManifest, chunkSize, size)
	}
	if len(b) < nameLen+4 {
		return nil, ErrBadManifest
	}
	name := string(b[:nameLen])
	count := int(binary.BigEndian.Uint32(b[nameLen:]))
	b = b[nameLen+4:]
	if count != chunkCount(int64(size), chunkSize) {
		return nil, fmt.Errorf("%w: count %d does not match size %d / chunkSize %d", ErrBadManifest, count, size, chunkSize)
	}
	if len(b) < count*sha256.Size {
		return nil, ErrBadManifest
	}
	m := &Manifest{Name: name, Size: int64(size), ChunkSize: chunkSize, Gen: gen}
	if count > 0 {
		m.Sums = make([]Digest, count)
		for i := range m.Sums {
			copy(m.Sums[i][:], b[i*sha256.Size:])
		}
	}
	b = b[count*sha256.Size:]
	if !v2 {
		if len(b) != 0 {
			return nil, ErrBadManifest
		}
		return m, nil
	}
	hints, err := decodeHints(b, count)
	if err != nil {
		return nil, err
	}
	m.Hints = hints
	return m, nil
}

// decodeHints parses CBM2's owner section into one hint per chunk.
func decodeHints(b []byte, count int) ([]string, error) {
	if len(b) < 2 {
		return nil, ErrBadManifest
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < 3*n { // each entry is at least a u16 length and one byte
		return nil, ErrBadManifest
	}
	owners := make([]string, n)
	for i := range owners {
		if len(b) < 2 {
			return nil, ErrBadManifest
		}
		l := int(binary.BigEndian.Uint16(b))
		if l == 0 || len(b) < 2+l {
			return nil, ErrBadManifest
		}
		owners[i] = string(b[2 : 2+l])
		b = b[2+l:]
	}
	if len(b) != 2*count {
		return nil, ErrBadManifest
	}
	if count == 0 {
		return nil, nil
	}
	hints := make([]string, count)
	for seq := range hints {
		switch i := int(binary.BigEndian.Uint16(b[2*seq:])); {
		case i == noHint:
		case i < len(owners):
			hints[seq] = owners[i]
		default:
			return nil, fmt.Errorf("%w: chunk %d owner index %d outside a %d-entry table", ErrBadManifest, seq, i, len(owners))
		}
	}
	return hints, nil
}
