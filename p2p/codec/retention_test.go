package codec

import (
	"sync/atomic"
	"testing"
)

// TestBufferClassFor pins the class boundaries: every size lands in the
// smallest class holding it, and nothing past the largest class is
// pooled.
func TestBufferClassFor(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{0, 0},
		{178, 0},
		{SmallBuf, 0},
		{SmallBuf + 1, 1},
		{64<<10 + 600, 1}, // a 64 KiB chunk frame with its envelope
		{68 << 10, 1},
		{68<<10 + 1, 2},
		{1 << 20, 3},
		{maxPooledBuf, 3},
		{maxPooledBuf + 1, -1},
	} {
		if got := classFor(tc.n); got != tc.class {
			t.Errorf("classFor(%d) = %d, want %d", tc.n, got, tc.class)
		}
		b := GetBufferSize(tc.n)
		if cap(b.B) < tc.n || len(b.B) != 0 {
			t.Errorf("GetBufferSize(%d): len %d cap %d", tc.n, len(b.B), cap(b.B))
		}
		PutBuffer(b)
	}
}

// TestBufferClassesNoCollapse is the regression test for the EWMA
// policy this replaced: 64 KiB frames interleaved with 178-byte frames
// dragged a shared "typical size" estimate between the two until
// neither size was retained and every large frame reallocated. With
// one pool per class, both sizes recycle: the mixed stream runs
// allocation-free once warm.
func TestBufferClassesNoCollapse(t *testing.T) {
	const chunkFrame = 64<<10 + 200
	var sink atomic.Int64
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		n := 178
		if i++; i%4 == 0 {
			n = chunkFrame
		}
		b := GetBufferSize(n)
		b.B = b.B[:n]
		sink.Add(int64(len(b.B)))
		PutBuffer(b)
	})
	if allocs > 0 {
		t.Errorf("interleaved 64 KiB / 178 B frames allocate %.1f/frame, want 0", allocs)
	}
}

// TestBufferRetentionFloor pins that a run of tiny (or zero-capacity)
// returns cannot make the pool under-deliver: such buffers are dropped,
// GetBufferSize always hands out at least the requested capacity, and
// GetBuffer at least the small class's new-buffer size.
func TestBufferRetentionFloor(t *testing.T) {
	for i := 0; i < 64; i++ {
		PutBuffer(&Buffer{})
	}
	for i := 0; i < 64; i++ {
		b := GetBufferSize(SmallBuf)
		if cap(b.B) < SmallBuf {
			t.Fatalf("GetBufferSize(%d) returned cap %d", SmallBuf, cap(b.B))
		}
		PutBuffer(b)
		if b := GetBuffer(); cap(b.B) < smallBufNew {
			t.Fatalf("GetBuffer returned cap %d, below the %d new-buffer size", cap(b.B), smallBufNew)
		}
	}
}

// TestPutBufferDropsOutliers is the footprint check at the API surface:
// a buffer that covers no class — grown just past small, or past the
// largest class — is never handed back out, and a large buffer never
// comes back from the small class.
func TestPutBufferDropsOutliers(t *testing.T) {
	for _, c := range []int{SmallBuf + 1, 40 << 10, maxPooledBuf + 1} {
		outlier := &Buffer{B: make([]byte, 0, c)}
		PutBuffer(outlier)
		for i := 0; i < 4; i++ {
			if GetBufferSize(c) == outlier || GetBuffer() == outlier {
				t.Fatalf("a %d-byte outlier was pooled", c)
			}
		}
	}
	PutBuffer(&Buffer{B: make([]byte, 0, 256<<10)})
	got := GetBuffer()
	defer PutBuffer(got)
	if cap(got.B) > SmallBuf {
		t.Fatalf("GetBuffer returned a %d-byte buffer from the small class", cap(got.B))
	}
}

// TestBufferRetentionAllocSteadyState pins the zero-alloc round trip
// for small buffers: class selection must not introduce per-op
// allocations.
func TestBufferRetentionAllocSteadyState(t *testing.T) {
	var sink atomic.Int64
	allocs := testing.AllocsPerRun(200, func() {
		b := GetBuffer()
		b.B = append(b.B, "steady-state frame"...)
		sink.Add(int64(len(b.B)))
		PutBuffer(b)
	})
	if allocs > 0 {
		t.Errorf("small buffer round trip allocates %.1f/op, want 0", allocs)
	}
}
