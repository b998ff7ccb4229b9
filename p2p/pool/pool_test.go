package pool

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cycloid/p2p/codec"
)

// frame is one decoded CYCLOID-MUX/2 frame: a correlation ID plus
// either a payload (status 0) or a peer-side error message (status 1).
type frame struct {
	ID  uint64
	P   []byte
	Err string
}

// appendFrame encodes f onto buf in the wire layout.
func appendFrame(buf []byte, f frame) []byte {
	body, status := f.P, byte(0)
	if f.Err != "" {
		body, status = []byte(f.Err), 1
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(binEnvelopeLen+len(body)))
	buf = binary.LittleEndian.AppendUint64(buf, f.ID)
	buf = append(buf, status)
	return append(buf, body...)
}

// startServer runs a minimal CYCLOID-MUX/2 peer on a TCP loopback
// listener: every accepted connection must open with the preamble,
// which the peer echoes, then each inbound frame is answered by handler
// (nil return = stay silent, for timeout tests). Returns the address
// and a stop func.
func startServer(t *testing.T, handler func(f frame) *frame) (string, func()) {
	t.Helper()
	return serve(t, func(conn net.Conn) {
		br := bufio.NewReader(conn)
		pre := make([]byte, codec.PreambleLen)
		if _, err := io.ReadFull(br, pre); err != nil || string(pre) != codec.PreambleMuxV2 {
			return
		}
		if _, err := conn.Write(pre); err != nil {
			return
		}
		var wmu sync.Mutex
		for {
			var hdr [4]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			l := int(binary.LittleEndian.Uint32(hdr[:]))
			if l < binEnvelopeLen || l > DefaultMaxFrame {
				return
			}
			body := make([]byte, l)
			if _, err := io.ReadFull(br, body); err != nil {
				return
			}
			in := frame{ID: binary.LittleEndian.Uint64(body), P: body[binEnvelopeLen:]}
			go func() {
				if out := handler(in); out != nil {
					wmu.Lock()
					conn.Write(appendFrame(nil, *out))
					wmu.Unlock()
				}
			}()
		}
	})
}

// startV1Server runs a peer from before CYCLOID-MUX/2: it reads the
// opening bytes as a JSON request, fails to parse them, and closes
// without writing a byte.
func startV1Server(t *testing.T) (string, func()) {
	t.Helper()
	return serve(t, func(conn net.Conn) {
		_, _ = conn.Read(make([]byte, codec.PreambleLen))
	})
}

// serve accepts TCP loopback connections and runs handle on each,
// closing the connection when it returns.
func serve(t *testing.T, handle func(net.Conn)) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// do performs one exchange with a raw payload, copying the reply out of
// its pooled buffer.
func do(p *Pool, ctx context.Context, addr string, payload []byte, timeout time.Duration) ([]byte, error) {
	rep, err := p.DoBytes(ctx, addr, payload, true, timeout)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), rep.Payload...)
	rep.Release()
	return out, nil
}

// echo answers every frame with its own payload.
func echo(f frame) *frame { return &frame{ID: f.ID, P: f.P} }

func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func TestDoReusesConnection(t *testing.T) {
	addr, stop := startServer(t, echo)
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	for i := 0; i < 10; i++ {
		want := fmt.Sprintf(`{"i":%d}`, i)
		got, err := do(p, context.Background(), addr, []byte(want), time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("call %d: got %s, want %s", i, got, want)
		}
	}
	s := p.Stats()
	if s.Dials != 1 {
		t.Fatalf("expected exactly 1 dial for sequential calls, got %d", s.Dials)
	}
	if s.Reuses != 9 {
		t.Fatalf("expected 9 reuses, got %d", s.Reuses)
	}
	if s.OpenConns != 1 {
		t.Fatalf("expected 1 open conn, got %d", s.OpenConns)
	}
}

// TestBinaryNegotiationAndEcho: the handshake completes on the first
// dial and frames of every size class — empty, step-sized, one blob
// chunk — round-trip intact.
func TestBinaryNegotiationAndEcho(t *testing.T) {
	addr, stop := startServer(t, echo)
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	for i, size := range []int{0, 1, 178, 64 << 10} {
		want := make([]byte, size)
		for j := range want {
			want[j] = byte(i + j)
		}
		got, err := do(p, context.Background(), addr, want, time.Second)
		if err != nil {
			t.Fatalf("call %d (%d bytes): %v", i, size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d: %d-byte payload came back as %d bytes", i, size, len(got))
		}
	}
	if s := p.Stats(); s.Dials != 1 || s.Teardowns != 0 {
		t.Fatalf("the handshake should hold on the first dial: dials=%d teardowns=%d", s.Dials, s.Teardowns)
	}
}

// TestForcedBinaryAgainstV1PeerFails: a peer that closes instead of
// echoing the preamble (a build from before CYCLOID-MUX/2) is a dial
// failure, and no connection to it stays open.
func TestForcedBinaryAgainstV1PeerFails(t *testing.T) {
	addr, stop := startV1Server(t)
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	_, err := do(p, context.Background(), addr, []byte(`{}`), time.Second)
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("a peer that does not echo the preamble should fail the dial, got %v", err)
	}
	if s := p.Stats(); s.Dials != 0 || s.OpenConns != 0 {
		t.Fatalf("dials=%d open=%d after a refused handshake", s.Dials, s.OpenConns)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	addr, stop := startServer(t, echo)
	defer stop()
	p := New(Config{Dial: tcpDial, MaxPerPeer: 2})
	defer p.Close()

	const workers, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*calls)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := fmt.Sprintf(`{"w":%d,"i":%d}`, w, i)
				got, err := do(p, context.Background(), addr, []byte(want), 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if string(got) != want {
					errs <- fmt.Errorf("got %s, want %s", got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Dials > 2 {
		t.Fatalf("dials %d exceed MaxPerPeer 2", s.Dials)
	}
}

// TestConcurrentCallsMultiplexBinary: the frames are length-prefixed,
// so payloads are opaque bytes — NULs, newlines and every other byte
// value, at sizes from empty to several KiB — and concurrent callers
// sharing a single connection each get back exactly their own payload.
func TestConcurrentCallsMultiplexBinary(t *testing.T) {
	addr, stop := startServer(t, echo)
	defer stop()
	p := New(Config{Dial: tcpDial, MaxPerPeer: 1})
	defer p.Close()

	const workers, calls = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*calls)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := make([]byte, (w*calls+i)*37%5000)
				for j := range want {
					want[j] = byte(w*31 + i*7 + j)
				}
				got, err := do(p, context.Background(), addr, want, 5*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d call %d: got %d bytes, want %d", w, i, len(got), len(want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Dials != 1 {
		t.Fatalf("dials %d, want every call on one connection", s.Dials)
	}
}

func TestTimeoutTearsDownAndRecovers(t *testing.T) {
	var silent bool
	var mu sync.Mutex
	addr, stop := startServer(t, func(f frame) *frame {
		mu.Lock()
		s := silent
		mu.Unlock()
		if s {
			return nil
		}
		return echo(f)
	})
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	if _, err := do(p, context.Background(), addr, []byte(`{}`), time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	silent = true
	mu.Unlock()
	_, err := do(p, context.Background(), addr, []byte(`{}`), 50*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout from silent peer")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("timeout should satisfy net.Error Timeout(), got %T: %v", err, err)
	}
	if s := p.Stats(); s.Teardowns != 1 {
		t.Fatalf("expected 1 teardown after timeout, got %d", s.Teardowns)
	}
	// The pool must recover by re-dialing.
	mu.Lock()
	silent = false
	mu.Unlock()
	if _, err := do(p, context.Background(), addr, []byte(`{}`), time.Second); err != nil {
		t.Fatalf("call after teardown: %v", err)
	}
	if s := p.Stats(); s.Dials != 2 {
		t.Fatalf("expected a fresh dial after teardown, got %d dials", s.Dials)
	}
}

func TestPeerErrorEnvelopeKeepsConnection(t *testing.T) {
	addr, stop := startServer(t, func(f frame) *frame {
		return &frame{ID: f.ID, Err: "no such op"}
	})
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	_, err := do(p, context.Background(), addr, []byte(`{}`), time.Second)
	if err == nil || !strings.Contains(err.Error(), "no such op") {
		t.Fatalf("expected peer error, got %v", err)
	}
	// A per-call error is not a connection failure: the conn survives.
	if _, err := do(p, context.Background(), addr, []byte(`{}`), time.Second); err == nil {
		t.Fatal("expected peer error on second call too")
	}
	s := p.Stats()
	if s.Dials != 1 || s.Teardowns != 0 {
		t.Fatalf("per-call errors must not tear down: dials=%d teardowns=%d", s.Dials, s.Teardowns)
	}
}

func TestProtocolErrorTearsDown(t *testing.T) {
	addr, stop := startServer(t, func(f frame) *frame {
		return &frame{Err: "frame exceeds size limit"} // ID 0: connection-level
	})
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	_, err := do(p, context.Background(), addr, []byte(`{}`), time.Second)
	if err == nil {
		t.Fatal("expected error from protocol-level envelope")
	}
	if s := p.Stats(); s.Teardowns != 1 {
		t.Fatalf("expected teardown on protocol error, got %d", s.Teardowns)
	}
}

// TestOversizedRequestRejectedLocally pins the outbound MaxFrame
// check: the request fails with ErrFrameTooLarge before any bytes hit
// the wire, and the connection stays healthy.
func TestOversizedRequestRejectedLocally(t *testing.T) {
	big := []byte(`"` + strings.Repeat("x", 256) + `"`)
	small := []byte(`"ok"`)

	t.Run("binary", func(t *testing.T) {
		addr, stop := startServer(t, echo)
		defer stop()
		p := New(Config{Dial: tcpDial, MaxFrame: 128})
		defer p.Close()
		if _, err := do(p, context.Background(), addr, big, time.Second); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("expected ErrFrameTooLarge, got %v", err)
		}
		if _, err := do(p, context.Background(), addr, small, time.Second); err != nil {
			t.Fatalf("connection should survive a rejected oversized request: %v", err)
		}
		if s := p.Stats(); s.Teardowns != 0 {
			t.Fatalf("oversized request must not tear down, got %d teardowns", s.Teardowns)
		}
	})
}

// TestOversizedReplyTearsDown pins the inbound MaxFrame check: a reply
// whose length prefix overruns the cap fails the call with
// ErrFrameTooLarge and tears the connection down, before any payload
// buffer is sized.
func TestOversizedReplyTearsDown(t *testing.T) {
	const maxFrame = 128
	addr, stop := serve(t, func(conn net.Conn) {
		pre := make([]byte, codec.PreambleLen)
		if _, err := io.ReadFull(conn, pre); err != nil {
			return
		}
		conn.Write(pre)
		var hdr [4 + binEnvelopeLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		conn.Write(binary.LittleEndian.AppendUint32(nil, maxFrame+1))
		io.Copy(io.Discard, conn)
	})
	defer stop()
	p := New(Config{Dial: tcpDial, MaxFrame: maxFrame})
	defer p.Close()

	if _, err := do(p, context.Background(), addr, nil, time.Second); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
	if s := p.Stats(); s.Teardowns != 1 || s.OpenConns != 0 {
		t.Fatalf("an overrun reply must tear the connection down: teardowns=%d open=%d", s.Teardowns, s.OpenConns)
	}
}

func TestIdleEviction(t *testing.T) {
	addr, stop := startServer(t, echo)
	defer stop()
	p := New(Config{Dial: tcpDial, IdleTimeout: time.Nanosecond})
	defer p.Close()

	if _, err := do(p, context.Background(), addr, []byte(`{}`), time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	p.EvictIdle()
	s := p.Stats()
	if s.Evictions != 1 || s.OpenConns != 0 {
		t.Fatalf("expected idle conn evicted: evictions=%d open=%d", s.Evictions, s.OpenConns)
	}
}

func TestCloseFailsPendingAndFutureCalls(t *testing.T) {
	addr, stop := startServer(t, func(frame) *frame { return nil })
	defer stop()
	p := New(Config{Dial: tcpDial})

	done := make(chan error, 1)
	go func() {
		_, err := do(p, context.Background(), addr, []byte(`{}`), 10*time.Second)
		done <- err
	}()
	// Wait for the call to be in flight, then close under it.
	for {
		if p.Stats().OpenConns == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("pending call should fail with ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
	if _, err := do(p, context.Background(), addr, []byte(`{}`), time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close should return ErrClosed, got %v", err)
	}
}

func TestContextDeadlineCapsCall(t *testing.T) {
	addr, stop := startServer(t, func(frame) *frame { return nil })
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	began := time.Now()
	_, err := do(p, ctx, addr, []byte(`{}`), 10*time.Second)
	if err == nil {
		t.Fatal("expected context deadline to fail the call")
	}
	if took := time.Since(began); took > 2*time.Second {
		t.Fatalf("context deadline not honored: call took %v", took)
	}
}

// TestWriterBatches checks the adaptive coalescing: frames queued while
// a write is stalled ride one later Write call.
func TestWriterBatches(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	w := NewWriter(c1, time.Second, nil)

	reads := make(chan []byte, 16)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := c2.Read(buf)
			if err != nil {
				close(reads)
				return
			}
			reads <- append([]byte(nil), buf[:n]...)
		}
	}()

	// First frame occupies the (synchronous) pipe write; the rest queue
	// behind it and must coalesce.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := w.Frame(0, func(buf []byte) ([]byte, error) {
				return append(buf, fmt.Sprintf("frame-%d;", i)...), nil
			})
			if err != nil {
				t.Errorf("frame %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	var all []byte
	deadline := time.After(time.Second)
	for len(all) < len("frame-0;")*4 {
		select {
		case b := <-reads:
			all = append(all, b...)
		case <-deadline:
			t.Fatalf("frames not delivered, got %q", all)
		}
	}
	for i := 0; i < 4; i++ {
		if !strings.Contains(string(all), fmt.Sprintf("frame-%d;", i)) {
			t.Fatalf("frame %d missing from %q", i, all)
		}
	}
}

// TestWriterFillErrorRollsBack checks a failed fill leaves no partial
// bytes behind.
func TestWriterFillErrorRollsBack(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	w := NewWriter(c1, time.Second, nil)

	boom := errors.New("encode failed")
	errCh := make(chan error, 1)
	go func() {
		errCh <- w.Frame(0, func(buf []byte) ([]byte, error) {
			return append(buf, "partial garbage"...), boom
		})
	}()
	if err := <-errCh; !errors.Is(err, boom) {
		t.Fatalf("fill error not returned: %v", err)
	}

	go func() {
		errCh <- w.Frame(0, func(buf []byte) ([]byte, error) {
			return append(buf, "clean frame"...), nil
		})
	}()
	buf := make([]byte, 64)
	_ = c2.SetReadDeadline(time.Now().Add(time.Second))
	n, err := c2.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); got != "clean frame" {
		t.Fatalf("rolled-back bytes leaked onto the wire: %q", got)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestPerPeerInflightCapRejects pins the saturation valve: with
// MaxPerPeerInflight set, a call beyond the cap fails immediately with
// the typed ErrPeerSaturated instead of queueing more work onto the
// peer — and the rejection is counted.
func TestPerPeerInflightCapRejects(t *testing.T) {
	received := make(chan struct{}, 16)
	addr, stop := startServer(t, func(f frame) *frame {
		received <- struct{}{}
		return nil // park the call in flight
	})
	p := New(Config{Dial: tcpDial, MaxPerPeerInflight: 2})

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := do(p, context.Background(), addr, []byte(`{"op":"park"}`), 5*time.Second)
			errs <- err
		}()
	}
	// Both calls registered in flight: registration precedes the write,
	// so the server receiving both frames implies both are counted.
	for i := 0; i < 2; i++ {
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatal("parked calls never reached the server")
		}
	}

	start := time.Now()
	_, err := do(p, context.Background(), addr, []byte(`{"op":"one-too-many"}`), 5*time.Second)
	if !errors.Is(err, ErrPeerSaturated) {
		t.Fatalf("call beyond the cap = %v; want ErrPeerSaturated", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("saturation rejection took %v; want immediate", d)
	}
	if got := p.Stats().Saturated; got != 1 {
		t.Fatalf("Stats().Saturated = %d, want 1", got)
	}

	// Closing the pool fails the parked calls; then the server can stop.
	p.Close()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatal("parked call succeeded after pool close")
		}
	}
	stop()
}

// TestDoCanceledContextSkipsDial pins the dead-work fix: a call whose
// context is already canceled (or expired) returns ctx.Err() without
// dialing the peer or enqueueing a frame. So does a call whose payload
// is declared non-binary.
func TestDoCanceledContextSkipsDial(t *testing.T) {
	var dials int32
	countingDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		atomic.AddInt32(&dials, 1)
		return nil, errors.New("unreachable")
	}
	p := New(Config{Dial: countingDial})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.DoBytes(ctx, "peer:1", []byte("{}"), true, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("DoBytes with canceled ctx = %v; want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := p.DoBytes(expired, "peer:1", []byte("{}"), true, time.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DoBytes with expired ctx = %v; want context.DeadlineExceeded", err)
	}
	if _, err := p.DoBytes(context.Background(), "peer:1", []byte("{}"), false, time.Second); err == nil {
		t.Fatal("DoBytes with a non-binary payload succeeded")
	}
	if n := atomic.LoadInt32(&dials); n != 0 {
		t.Fatalf("dead calls still dialed %d times", n)
	}
}
