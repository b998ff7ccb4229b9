package blob_test

import (
	"context"
	"crypto/sha256"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"cycloid/p2p/blob"
)

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestBlobByteBudget gates the bytes the whole in-process fleet
// allocates per payload byte of 1 MiB blob rewrites and reads at R=3.
// A written chunk is copied once per holder, where its frame decodes,
// and a read chunk once, decoded straight into the caller's output: 3
// and 1 bytes per byte plus overhead. A second copy anywhere on either
// path (a store copying a value it was handed, Get copying decoded
// chunks into its output) pushes a ratio past its bound.
func TestBlobByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled frame buffers at random, inflating allocation")
	}
	nodes, _ := cluster(t, 8, 5, clusterOpt{replicas: 3})
	w, err := blob.New(nodes[1], blob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := blob.New(nodes[6], blob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const size, rounds = 1 << 20, 8
	data := payload(3, size)
	// Warm-up: pooled connections dialed, buffer pools filled, the
	// blob's first generation written so every measured Put rewrites.
	for i := 0; i < 2; i++ {
		if err := w.Put(ctx, "budget", data); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Get(ctx, "budget"); err != nil {
			t.Fatal(err)
		}
	}

	before := allocated()
	for i := 0; i < rounds; i++ {
		if err := w.Put(ctx, "budget", data); err != nil {
			t.Fatal(err)
		}
	}
	put := float64(allocated()-before) / (rounds * size)
	before = allocated()
	for i := 0; i < rounds; i++ {
		got, err := r.Get(ctx, "budget")
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(got) != sha256.Sum256(data) {
			t.Fatal("Get returned other bytes than were written")
		}
	}
	get := float64(allocated()-before) / (rounds * size)
	t.Logf("bytes allocated per payload byte: put %.3f, get %.3f", put, get)
	if put > 3.5 {
		t.Errorf("a 1 MiB Put allocates %.3f bytes per payload byte, want <= 3.5", put)
	}
	if get > 1.25 {
		t.Errorf("a 1 MiB Get allocates %.3f bytes per payload byte, want <= 1.25", get)
	}
}

// TestBlobStreamReusesChunkBuffers streams a 32-chunk blob through
// io.Copy: the bytes must come back exactly, and once the first window
// of chunks is in flight the stream must decode each chunk into the
// buffer of one already consumed, so the rest of the read allocates
// less than Window+2 chunks' worth, not one chunk per chunk.
//
// Under -race only the bytes are checked.
func TestBlobStreamReusesChunkBuffers(t *testing.T) {
	nodes, _ := cluster(t, 8, 7, clusterOpt{replicas: 3})
	const chunk, window, count = 64 << 10, 4, 32
	opts := blob.Options{ChunkSize: chunk, Window: window}
	w, err := blob.New(nodes[2], opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := blob.New(nodes[5], opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := payload(9, count*chunk)
	if err := w.Put(ctx, "stream", data); err != nil {
		t.Fatal(err)
	}
	// No collection from here on: one would empty the frame-buffer
	// pools and charge their refills to the stream. A warm-up read dials
	// the pooled connections the stream will use and fills those pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := s.Get(ctx, "stream"); err != nil {
		t.Fatal(err)
	}
	rd, err := s.Open(ctx, "stream")
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	// The first Read launches the first window and consumes chunk 0.
	h := sha256.New()
	head := make([]byte, chunk)
	if _, err := io.ReadFull(rd, head); err != nil {
		t.Fatal(err)
	}
	h.Write(head)
	before := allocated()
	n, err := io.Copy(h, onlyReader{rd})
	spent := allocated() - before
	if err != nil {
		t.Fatal(err)
	}
	rest := count - 1
	if n != int64(rest*chunk) || [32]byte(h.Sum(nil)) != sha256.Sum256(data) {
		t.Fatalf("streamed %d bytes after the first chunk, want %d, or other bytes than were written", n, rest*chunk)
	}
	t.Logf("%d bytes allocated streaming the last %d chunks", spent, rest)
	if raceEnabled {
		return // sync.Pool drops frame buffers at random: no budget holds
	}
	if limit := uint64((window + 2) * chunk); spent >= limit {
		t.Errorf("streaming the last %d chunks allocated %d bytes, want < %d (Window+2 chunks)", rest, spent, limit)
	}
}
