package blob_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cycloid/p2p/blob"
)

func testManifest(name string, size int64, chunkSize int, gen uint64) *blob.Manifest {
	m := &blob.Manifest{Name: name, Size: size, ChunkSize: chunkSize, Gen: gen}
	count := int((size + int64(chunkSize) - 1) / int64(chunkSize))
	if size == 0 {
		return m // no chunks: Sums stays nil, as DecodeManifest leaves it
	}
	m.Sums = make([]blob.Digest, count)
	for i := range m.Sums {
		m.Sums[i] = sha256.Sum256([]byte{byte(i), byte(i >> 8)})
	}
	return m
}

// withHints sets m's owner hints, one per chunk.
func withHints(m *blob.Manifest, hints ...string) *blob.Manifest {
	m.Hints = hints
	return m
}

// TestManifestRoundTrip encodes and decodes manifests across the shape
// space: empty blob, single chunk, ragged tail, empty and long names,
// high generations, and owner hints — shared, unknown, all unknown.
func TestManifestRoundTrip(t *testing.T) {
	for _, m := range []*blob.Manifest{
		testManifest("", 0, 1, 0),
		testManifest("a", 1, 4096, 1),
		testManifest("video/episode-1", 4096*7, 4096, 2),
		testManifest("ragged", 4096*7+13, 4096, 1<<40),
		testManifest(string(bytes.Repeat([]byte("n"), 1000)), 64, 64, 9),
		withHints(testManifest("hinted", 4096*3, 4096, 3), "10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.1:7000"),
		withHints(testManifest("partly", 4096*3, 4096, 3), "", "n4", ""),
		withHints(testManifest("unknown", 4096*2, 4096, 3), "", ""),
	} {
		got, err := blob.DecodeManifest(m.Encode())
		if err != nil {
			t.Fatalf("decode %q: %v", m.Name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %q:\n got %+v\nwant %+v", m.Name, got, m)
		}
	}
}

// TestManifestRoundTripProperty is decode(encode(m)) == m over random
// manifests: geometry, names, generations and hint patterns drawn from
// a small address set (so the owner table dedups) plus unknowns.
func TestManifestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	addrs := []string{"", "n0", "127.0.0.1:40001", "[::1]:7", "very-long-host-name.example:65535"}
	for i := 0; i < 500; i++ {
		chunkSize := 1 + rng.Intn(512)
		m := testManifest(fmt.Sprintf("blob-%d", rng.Intn(1000)), int64(rng.Intn(40*chunkSize)), chunkSize, rng.Uint64())
		if m.Count() > 0 && rng.Intn(4) > 0 {
			m.Hints = make([]string, m.Count())
			for seq := range m.Hints {
				m.Hints[seq] = addrs[rng.Intn(len(addrs))]
			}
		}
		got, err := blob.DecodeManifest(m.Encode())
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("case %d: round trip:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// seedCBM1 is a manifest as the pre-hint code encoded it ("seed",
// 2×4096+5 bytes in 4096-byte chunks, generation 7): the CBM1 values
// durable stores already hold.
const seedCBM1 = "43424d310000100000000000000020050000000000000007000473656564000000036e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459adbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986"

// TestManifestCBM1Compat decodes a manifest the seed code wrote: it
// comes back without hints, and a hint-less manifest still encodes to
// exactly those bytes.
func TestManifestCBM1Compat(t *testing.T) {
	enc, _ := hex.DecodeString(seedCBM1)
	m, err := blob.DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "seed" || m.Size != 4096*2+5 || m.ChunkSize != 4096 || m.Gen != 7 || m.Count() != 3 || m.Hints != nil {
		t.Fatalf("decoded CBM1 manifest: %+v", m)
	}
	for i := range m.Sums {
		if m.Sums[i] != sha256.Sum256([]byte{byte(i)}) {
			t.Fatalf("digest %d mismatch", i)
		}
	}
	if !bytes.Equal(m.Encode(), enc) {
		t.Fatal("a hint-less manifest no longer encodes as the seed's CBM1 bytes")
	}
}

// TestBlobReadsCBM1Manifest commits a blob, then replaces its manifest
// with the hint-less CBM1 encoding older builds wrote: the blob still
// reads in full, by routed lookups, counting no hint misses.
func TestBlobReadsCBM1Manifest(t *testing.T) {
	nodes, _ := cluster(t, 5, 6, clusterOpt{})
	s, err := blob.New(nodes[0], blob.Options{ChunkSize: 256, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := payload(6, 256*5+1)
	if err := s.Put(ctx, "legacy", want); err != nil {
		t.Fatal(err)
	}
	m, err := s.Manifest(ctx, "legacy")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hints) != m.Count() {
		t.Fatalf("Put recorded %d hints for %d chunks", len(m.Hints), m.Count())
	}
	m.Hints = nil
	enc := m.Encode()
	if string(enc[:4]) != "CBM1" {
		t.Fatalf("hint-less manifest encodes as %q", enc[:4])
	}
	if err := nodes[0].Put("blob:m:legacy", enc); err != nil {
		t.Fatal(err)
	}
	r, err := blob.New(nodes[3], blob.Options{ChunkSize: 256, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(ctx, "legacy")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("CBM1 read: %v (equal=%v)", err, bytes.Equal(got, want))
	}
	if n := nodes[3].Telemetry().CounterValue("cycloid_blob_hint_misses_total"); n != 0 {
		t.Fatalf("a hint-less manifest counted %d hint misses", n)
	}
	// The next rewrite of a CBM1 blob writes CBM2 and garbage-collects
	// the hint-less generation by routed Puts.
	if err := s.Put(ctx, "legacy", want[:10]); err != nil {
		t.Fatal(err)
	}
	if m, err = s.Manifest(ctx, "legacy"); err != nil || len(m.Hints) != 1 {
		t.Fatalf("rewrite of a CBM1 blob: %+v, %v", m, err)
	}
}

// TestManifestDecodeErrors feeds structurally broken encodings to the
// decoder; each must fail with ErrBadManifest, never a panic or a
// silently wrong manifest.
func TestManifestDecodeErrors(t *testing.T) {
	valid := testManifest("ok", 100, 64, 1).Encode()
	cases := map[string][]byte{
		"empty":          nil,
		"short":          valid[:8],
		"bad magic":      append([]byte("XXXX"), valid[4:]...),
		"truncated sums": valid[:len(valid)-1],
		"trailing junk":  append(append([]byte{}, valid...), 0),
		"name past end":  func() []byte { b := append([]byte{}, valid...); b[24] = 0xff; b[25] = 0xff; return b }(),
		"zero chunkSize": func() []byte { b := append([]byte{}, valid...); b[4], b[5], b[6], b[7] = 0, 0, 0, 0; return b }(),
		"count mismatch": func() []byte { b := append([]byte{}, valid...); b[len(b)-2*sha256.Size-4+3]++; return b }(),
	}
	// CBM2: two chunks, a one-entry owner table "ab", indices 0 and 0.
	hinted := withHints(testManifest("ok", 100, 64, 1), "ab", "ab").Encode()
	if _, err := blob.DecodeManifest(hinted); err != nil {
		t.Fatalf("valid CBM2 manifest: %v", err)
	}
	tail := len(hinted) - 4 // the two u16 owner indices
	cases["index out of range"] = func() []byte { b := append([]byte{}, hinted...); b[tail+1] = 1; return b }()
	cases["index 0xFFFE"] = func() []byte { b := append([]byte{}, hinted...); b[tail], b[tail+1] = 0xff, 0xfe; return b }()
	cases["empty owner"] = func() []byte { b := append([]byte{}, hinted...); b[tail-3] = 0; return b }()
	cases["owner count past end"] = func() []byte { b := append([]byte{}, hinted...); b[tail-6] = 0xff; return b }()
	cases["missing index"] = hinted[:len(hinted)-2]
	cases["CBM2 trailing junk"] = append(append([]byte{}, hinted...), 0)
	cases["CBM1 with hints"] = append([]byte("CBM1"), hinted[4:]...)
	for name, enc := range cases {
		if _, err := blob.DecodeManifest(enc); !errors.Is(err, blob.ErrBadManifest) {
			t.Errorf("%s: err = %v, want ErrBadManifest", name, err)
		}
	}
	// Every truncation of a valid encoding fails cleanly.
	for _, enc := range [][]byte{valid, hinted} {
		for i := 0; i < len(enc); i++ {
			if _, err := blob.DecodeManifest(enc[:i]); err == nil {
				t.Errorf("truncation of %q to %d bytes decoded successfully", enc[:4], i)
			}
		}
	}
}

// FuzzManifestDecode asserts the decoder never panics on arbitrary
// bytes and that anything it accepts re-encodes canonically: decode →
// encode → decode is the identity.
func FuzzManifestDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(testManifest("", 0, 1, 0).Encode())
	f.Add(testManifest("seed", 4096*3+5, 4096, 7).Encode())
	f.Add(testManifest("big-gen", 64, 32, 1<<63).Encode())
	f.Add(withHints(testManifest("owners", 64*3, 64, 2), "n1:1", "", "n2:2").Encode())
	f.Add(withHints(testManifest("no-table", 64*2, 64, 2), "", "").Encode()) // empty table, 0xFFFF indices
	outOfRange := withHints(testManifest("bad-index", 64, 64, 2), "n1:1").Encode()
	outOfRange[len(outOfRange)-1] = 1 // index 1 of a one-entry table: must be rejected
	f.Add(outOfRange)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := blob.DecodeManifest(data)
		if err != nil {
			return
		}
		again, err := blob.DecodeManifest(m.Encode())
		if err != nil {
			t.Fatalf("re-encoding a decoded manifest failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("decode/encode/decode not the identity:\n got %+v\nwant %+v", again, m)
		}
	})
}
