package pool

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cycloid/p2p/codec"
)

// discard is a net.Conn sink whose writes and deadlines cost nothing,
// so allocation counts measure the writer's buffers alone.
type discard struct{ net.Conn }

func (discard) Write(b []byte) (int, error)      { return len(b), nil }
func (discard) SetWriteDeadline(time.Time) error { return nil }

// drainPipe returns a writer with the given write timeout over one end
// of a net.Pipe whose other end is swallowed; both ends close via
// t.Cleanup. Unlike discard, a deadline set on it costs what it costs
// on a real conn: net.Pipe arms a fresh time.AfterFunc per deadline.
func drainPipe(t *testing.T, timeout time.Duration) *Writer {
	t.Helper()
	client, server := net.Pipe()
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		buf := make([]byte, 64<<10)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		client.Close()
		drain.Wait()
	})
	return NewWriter(client, timeout, nil)
}

// sized returns a fill appending n zero bytes.
func sized(n int) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		for i := 0; i < n; i++ {
			b = append(b, 0)
		}
		return b, nil
	}
}

// TestWriterBatchRetention pins the per-connection retention policy,
// driving retireLocked directly: a small batch buffer of the
// connection's own stays as its spare, a shared-pool buffer goes back
// to the shared pool, and a buffer an unsized frame grew past the small
// class is dropped — none of the latter two stays with the connection.
func TestWriterBatchRetention(t *testing.T) {
	w := &Writer{}
	small := make([]byte, 200, 256)
	w.retireLocked(small, nil)
	if cap(w.spare) != 256 || len(w.spare) != 0 {
		t.Fatalf("small batch buffer not kept as the spare: len %d cap %d", len(w.spare), cap(w.spare))
	}

	box := codec.GetBufferSize(64 << 10)
	w.retireLocked(box.B[:100], box)
	if cap(w.spare) != 256 {
		t.Fatal("a chunk-class buffer displaced the connection's small spare")
	}
	if len(box.B) != 0 {
		t.Fatalf("pooled box returned with length %d", len(box.B))
	}

	for _, c := range []int{codec.SmallBuf + 1, 1 << 20} {
		w2 := &Writer{}
		w2.retireLocked(make([]byte, 0, c), nil)
		if w2.spare != nil {
			t.Fatalf("a %d-byte batch buffer was kept by the connection", c)
		}
	}
}

// TestWriterSpareShrinksAfterBurst is the end-to-end footprint check: a
// writer that flushed a 1 MiB frame keeps no buffer above the small
// class once the burst is written.
func TestWriterSpareShrinksAfterBurst(t *testing.T) {
	w := drainPipe(t, time.Second)
	for i := 0; i < 16; i++ {
		if err := w.Frame(1024, sized(1024)); err != nil {
			t.Fatalf("small frame %d: %v", i, err)
		}
	}
	if err := w.Frame(1<<20, sized(1<<20)); err != nil {
		t.Fatalf("giant frame: %v", err)
	}
	// An unsized giant frame (append growth) must not stick either.
	if err := w.Frame(0, sized(1<<20)); err != nil {
		t.Fatalf("unsized giant frame: %v", err)
	}

	w.mu.Lock()
	if w.box != nil || cap(w.buf) > codec.SmallBuf || cap(w.spare) > codec.SmallBuf {
		t.Errorf("writer holds buf=%d spare=%d (box %v) after the burst; small class is %d",
			cap(w.buf), cap(w.spare), w.box != nil, codec.SmallBuf)
	}
	w.mu.Unlock()

	// The writer keeps working after the burst.
	if err := w.Frame(0, sized(1024)); err != nil {
		t.Fatalf("frame after burst: %v", err)
	}
}

// TestWriterSmallFramesZeroAlloc pins the steady state of the lookup
// path: small frames through a warm writer cost no allocation — over a
// net.Pipe too, where re-arming the write deadline per frame used to
// cost a timer and its closure on every Write.
func TestWriterSmallFramesZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *Writer
	}{
		{"discard", NewWriter(discard{}, time.Second, nil)},
		{"pipe", drainPipe(t, time.Second)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := sized(178)
			allocs := testing.AllocsPerRun(200, func() {
				if err := tc.w.Frame(178, frame); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("small frames allocate %.1f/op in steady state, want 0", allocs)
			}
		})
	}
}

// TestWriterMixedFramesReuse is the writer-side regression for the
// EWMA collapse: 64 KiB frames interleaved with 178-byte frames used to
// average the retention threshold down until every large batch buffer
// was dropped and reallocated. Sized frames now draw their batch
// buffer from the chunk class and return it there, so the mixed stream
// allocates nothing once warm.
func TestWriterMixedFramesReuse(t *testing.T) {
	w := NewWriter(discard{}, time.Second, nil)
	const chunkFrame = 64<<10 + 200
	big, small := sized(chunkFrame), sized(178)
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		var err error
		if i++; i%4 == 0 {
			err = w.Frame(chunkFrame, big)
		} else {
			err = w.Frame(178, small)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("interleaved 64 KiB / 178 B frames allocate %.1f/frame, want 0", allocs)
	}
}

// TestWriterConcurrentMixedFrames races writers of small and chunk-sized
// frames on one connection, so batches keep moving between the
// connection's own buffers and shared-pool ones mid-flush: every frame
// must arrive whole and uninterleaved.
func TestWriterConcurrentMixedFrames(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	w := NewWriter(client, 5*time.Second, nil)
	const writers, perWriter = 4, 40
	got := make(chan map[byte]int, 1)
	go func() {
		seen := make(map[byte]int)
		defer func() { got <- seen }()
		var hdr [4]byte
		for {
			if _, err := io.ReadFull(server, hdr[:]); err != nil {
				return
			}
			body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(server, body); err != nil {
				return
			}
			for _, b := range body {
				if b != body[0] {
					t.Errorf("frame of %d bytes mixes tags %d and %d", len(body), body[0], b)
					return
				}
			}
			if seen[body[0]]++; len(seen) == writers && total(seen) == writers*perWriter {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				n := 178
				if i%3 == 0 {
					n = 64<<10 + 200
				}
				err := w.Frame(4+n, func(b []byte) ([]byte, error) {
					b = binary.LittleEndian.AppendUint32(b, uint32(n))
					for j := 0; j < n; j++ {
						b = append(b, tag)
					}
					return b, nil
				})
				if err != nil {
					t.Errorf("writer %d frame %d: %v", tag, i, err)
					return
				}
			}
		}(byte(g + 1))
	}
	wg.Wait()
	seen := <-got
	if total(seen) != writers*perWriter {
		t.Fatalf("received %d of %d frames: %v", total(seen), writers*perWriter, seen)
	}
}

func total(m map[byte]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}
