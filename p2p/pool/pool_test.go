package pool

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
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

// startServer runs a minimal v1-only mux peer on a TCP loopback
// listener: every accepted connection must open with the v1 preamble
// (anything else — including a v2 negotiation attempt — is dropped
// without a byte written, exactly like the legacy server's failed JSON
// parse), then each inbound envelope is answered by handler (nil
// return = stay silent, for timeout tests). Returns the address and a
// stop func.
func startServer(t *testing.T, handler func(env Envelope) *Envelope) (string, func()) {
	t.Helper()
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
				br := bufio.NewReader(conn)
				pre := make([]byte, len(Preamble))
				if _, err := io.ReadFull(br, pre); err != nil || string(pre) != Preamble {
					return
				}
				var wmu sync.Mutex
				for {
					line, err := ReadFrame(br, DefaultMaxFrame)
					if err != nil {
						return
					}
					var env Envelope
					if err := json.Unmarshal(line, &env); err != nil {
						return
					}
					go func() {
						if out := handler(env); out != nil {
							frame, _ := json.Marshal(out)
							frame = append(frame, '\n')
							wmu.Lock()
							conn.Write(frame)
							wmu.Unlock()
						}
					}()
				}
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// startBinServer runs a minimal v2-only mux peer: it acks the v2
// preamble and echoes every frame verbatim.
func startBinServer(t *testing.T) (string, func()) {
	t.Helper()
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
				br := bufio.NewReader(conn)
				pre := make([]byte, codec.PreambleLen)
				if _, err := io.ReadFull(br, pre); err != nil || string(pre) != codec.PreambleMuxV2 {
					return
				}
				if _, err := conn.Write([]byte(codec.PreambleMuxV2)); err != nil {
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
					frame := make([]byte, 4+l)
					copy(frame, hdr[:])
					if _, err := io.ReadFull(br, frame[4:]); err != nil {
						return
					}
					go func() {
						wmu.Lock()
						conn.Write(frame)
						wmu.Unlock()
					}()
				}
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// do performs one exchange with a raw payload in whichever codec the
// connection speaks, copying the reply out of its pooled buffer.
func do(p *Pool, ctx context.Context, addr string, payload []byte, timeout time.Duration) ([]byte, error) {
	rep, err := p.Do(ctx, addr, func(bin bool, buf []byte) ([]byte, error) {
		return append(buf, payload...), nil
	}, timeout)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), rep.Payload...)
	rep.Release()
	return out, nil
}

// echo answers every envelope with its own payload.
func echo(env Envelope) *Envelope { return &Envelope{ID: env.ID, P: env.P} }

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
	// The v1-only server also exercised the auto-negotiation fallback.
	if s.Fallbacks != 1 {
		t.Fatalf("expected 1 codec fallback against a v1-only peer, got %d", s.Fallbacks)
	}
	if c := p.PeerCodec(addr); c != codec.JSON {
		t.Fatalf("peer codec after fallback = %v, want json", c)
	}
}

func TestBinaryNegotiationAndEcho(t *testing.T) {
	addr, stop := startBinServer(t)
	defer stop()
	p := New(Config{Dial: tcpDial})
	defer p.Close()

	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("binary payload %d", i)
		got, err := do(p, context.Background(), addr, []byte(want), time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("call %d: got %q, want %q", i, got, want)
		}
	}
	s := p.Stats()
	if s.Dials != 1 || s.Fallbacks != 0 {
		t.Fatalf("v2 peer should negotiate on the first dial: dials=%d fallbacks=%d", s.Dials, s.Fallbacks)
	}
	if c := p.PeerCodec(addr); c != codec.Binary {
		t.Fatalf("peer codec after negotiation = %v, want binary", c)
	}
}

func TestForcedBinaryAgainstV1PeerFails(t *testing.T) {
	addr, stop := startServer(t, echo)
	defer stop()
	p := New(Config{Dial: tcpDial, Codec: codec.Binary})
	defer p.Close()

	_, err := do(p, context.Background(), addr, []byte(`{}`), time.Second)
	if err == nil || !strings.Contains(err.Error(), "v1 wire protocol") {
		t.Fatalf("forced binary against a v1-only peer should fail, got %v", err)
	}
	if s := p.Stats(); s.Fallbacks != 1 || s.OpenConns != 0 {
		t.Fatalf("fallbacks=%d open=%d after forced-binary refusal", s.Fallbacks, s.OpenConns)
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

func TestConcurrentCallsMultiplexBinary(t *testing.T) {
	addr, stop := startBinServer(t)
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
				want := fmt.Sprintf("w=%d i=%d", w, i)
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

func TestTimeoutTearsDownAndRecovers(t *testing.T) {
	var silent bool
	var mu sync.Mutex
	addr, stop := startServer(t, func(env Envelope) *Envelope {
		mu.Lock()
		s := silent
		mu.Unlock()
		if s {
			return nil
		}
		return echo(env)
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
	addr, stop := startServer(t, func(env Envelope) *Envelope {
		return &Envelope{ID: env.ID, Err: "no such op"}
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
	addr, stop := startServer(t, func(env Envelope) *Envelope {
		return &Envelope{Err: "frame exceeds size limit"} // ID 0: connection-level
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

// TestOversizedRequestRejectedLocally pins the outbound MaxFrame check
// for both codecs: the request fails with ErrFrameTooLarge before any
// bytes hit the wire, and the connection stays healthy.
func TestOversizedRequestRejectedLocally(t *testing.T) {
	big := []byte(`"` + strings.Repeat("x", 256) + `"`)
	small := []byte(`"ok"`)

	t.Run("json", func(t *testing.T) {
		addr, stop := startServer(t, echo)
		defer stop()
		p := New(Config{Dial: tcpDial, MaxFrame: 128, Codec: codec.JSON})
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
	t.Run("binary", func(t *testing.T) {
		addr, stop := startBinServer(t)
		defer stop()
		p := New(Config{Dial: tcpDial, MaxFrame: 128, Codec: codec.Binary})
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
	addr, stop := startServer(t, func(Envelope) *Envelope { return nil })
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
		t.Fatalf("Do after Close should return ErrClosed, got %v", err)
	}
}

func TestContextDeadlineCapsCall(t *testing.T) {
	addr, stop := startServer(t, func(Envelope) *Envelope { return nil })
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

func TestReadFrameCapsLine(t *testing.T) {
	long := strings.Repeat("x", 100) + "\n"
	br := bufio.NewReaderSize(strings.NewReader(long), 16)
	if _, err := ReadFrame(br, 32); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
	br = bufio.NewReaderSize(strings.NewReader(long), 16)
	got, err := ReadFrame(br, 256)
	if err != nil || string(got) != long {
		t.Fatalf("frame under cap should pass: %q %v", got, err)
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
	addr, stop := startServer(t, func(env Envelope) *Envelope {
		received <- struct{}{}
		return nil // park the call in flight
	})
	p := New(Config{Dial: tcpDial, Codec: codec.JSON, MaxPerPeerInflight: 2})

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
// dialing the peer or enqueueing a frame.
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
	if _, err := p.Do(ctx, "peer:1", func(bin bool, buf []byte) ([]byte, error) {
		return append(buf, "{}"...), nil
	}, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with canceled ctx = %v; want context.Canceled", err)
	}
	if _, err := p.DoBytes(ctx, "peer:1", []byte("{}"), false, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("DoBytes with canceled ctx = %v; want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := p.DoBytes(expired, "peer:1", []byte("{}"), false, time.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DoBytes with expired ctx = %v; want context.DeadlineExceeded", err)
	}
	if n := atomic.LoadInt32(&dials); n != 0 {
		t.Fatalf("dead calls still dialed %d times", n)
	}
}
