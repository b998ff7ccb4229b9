package pool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// serveWith runs a Server with handler h on a TCP loopback listener.
func serveWith(t *testing.T, h Handler) string {
	t.Helper()
	srv := NewServer(h, time.Second, "stopped")
	addr, stop := serve(t, srv.ServeConn)
	t.Cleanup(func() { srv.Close(); stop() })
	return addr
}

// upstream relays a forwarded call's outcome to the call it came in
// on, and its waiting checks as progress frames.
type upstream struct {
	c  *ServerConn
	id uint64
}

func (u upstream) Complete(_ uint64, rep Reply, err error) {
	if err != nil {
		u.c.Error(u.id, err.Error())
		go u.c.Done()
		return
	}
	payload := rep.Payload
	u.c.Relay(u.id, len(payload), func(buf []byte) ([]byte, error) { return append(buf, payload...), nil })
	rep.Release()
}

func (u upstream) Waiting(uint64) { u.c.Progress(u.id) }

// outcome records what a Forward call's relay heard.
type outcome struct {
	waits atomic.Int32
	done  chan error
	reply []byte
}

func newOutcome() *outcome { return &outcome{done: make(chan error, 1)} }

func (o *outcome) Complete(_ uint64, rep Reply, err error) {
	o.reply = append([]byte(nil), rep.Payload...)
	rep.Release()
	o.done <- err
}

func (o *outcome) Waiting(uint64) { o.waits.Add(1) }

// TestForwardRelaysThroughServer: a middle server forwards every call
// from its read loop to a back server and relays the answer upstream
// from the read loop that receives it. Many concurrent calls must all
// come back with their own answers.
func TestForwardRelaysThroughServer(t *testing.T) {
	back := serveWith(t, func(c *ServerConn, id uint64, body []byte) {
		answer := append([]byte("answer:"), body...)
		c.Reply(id, len(answer), func(buf []byte) ([]byte, error) { return append(buf, answer...), nil })
	})
	fwd := New(Config{Dial: tcpDial})
	defer fwd.Close()
	middle := serveWith(t, func(c *ServerConn, id uint64, body []byte) {
		c.Add()
		if err := fwd.Forward(back, body, time.Second, upstream{c, id}, id); err != nil {
			c.Error(id, err.Error())
			c.Done()
		}
	})
	p := New(Config{Dial: tcpDial})
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("answer:call-%d", i)
			got, err := do(p, context.Background(), middle, []byte(fmt.Sprintf("call-%d", i)), time.Second)
			if err == nil && string(got) != want {
				err = fmt.Errorf("got %q, want %q", got, want)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if s := fwd.Stats(); s.Inflight != 0 || s.OpenConns == 0 || s.OpenConns > maxPerPeer {
		t.Errorf("forwarding pool after the calls: %+v, want at most %d idle connections", s, maxPerPeer)
	}
}

// TestForwardProgressKeepsSlowCallAlive: a peer that takes longer than
// the timeout to answer, but sends progress frames meanwhile, is not
// given up on; the relay hears the waiting checks, then the answer.
func TestForwardProgressKeepsSlowCallAlive(t *testing.T) {
	const timeout = 150 * time.Millisecond
	slow := serveWith(t, func(c *ServerConn, id uint64, body []byte) {
		c.Add()
		answer := append([]byte(nil), body...)
		go func() {
			for i := 0; i < 4; i++ {
				time.Sleep(timeout / 3)
				c.Progress(id)
			}
			c.Relay(id, len(answer), func(buf []byte) ([]byte, error) { return append(buf, answer...), nil })
		}()
	})
	p := New(Config{Dial: tcpDial})
	defer p.Close()
	o := newOutcome()
	start := time.Now()
	if err := p.Forward(slow, []byte("slow"), timeout, o, 1); err != nil {
		t.Fatal(err)
	}
	if err := <-o.done; err != nil {
		t.Fatalf("slow call with progress failed after %v: %v", time.Since(start), err)
	}
	if took := time.Since(start); took < timeout || !bytes.Equal(o.reply, []byte("slow")) {
		t.Fatalf("answer %q after %v; want %q after more than %v", o.reply, took, "slow", timeout)
	}
	if o.waits.Load() == 0 {
		t.Error("the relay never heard a waiting check")
	}
	if s := p.Stats(); s.Teardowns != 0 {
		t.Errorf("%d teardowns for a live peer", s.Teardowns)
	}
}

// TestForwardSilentPeerTimesOut: a peer that accepts a call and then
// says nothing is given up on after one timeout, at most half a timeout
// late: the relay hears a timeout error and the connection is torn
// down, as after a failed dial.
func TestForwardSilentPeerTimesOut(t *testing.T) {
	const timeout = 100 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	silent := serveWith(t, func(c *ServerConn, id uint64, body []byte) {
		c.Add()
		go func() { <-release; c.Done() }()
	})
	p := New(Config{Dial: tcpDial})
	defer p.Close()
	o := newOutcome()
	start := time.Now()
	if err := p.Forward(silent, []byte("anyone?"), timeout, o, 1); err != nil {
		t.Fatal(err)
	}
	err := <-o.done
	took := time.Since(start)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent peer: %v, want a timeout", err)
	}
	if took < timeout || took > 2*timeout {
		t.Errorf("gave up after %v; want between %v and %v", took, timeout, 2*timeout)
	}
	if s := p.Stats(); s.Teardowns != 1 || s.OpenConns != 0 {
		t.Errorf("after the timeout: %+v, want the connection torn down", s)
	}
}

// TestForwardSlowDialKeepsUpstreamAlive: a forwarder whose first
// contact with its next peer dials for most of a timeout, or for all of
// it and fails, keeps telling its own caller it is waiting. The caller,
// which allows one timeout of silence, hears the answer or the
// forwarder's dial error — never a timeout of its own — and keeps its
// connection to the live forwarder.
func TestForwardSlowDialKeepsUpstreamAlive(t *testing.T) {
	const timeout = 400 * time.Millisecond
	back := serveWith(t, func(c *ServerConn, id uint64, body []byte) {
		c.Add()
		answer := append([]byte("answer:"), body...)
		time.AfterFunc(timeout*8/10, func() {
			c.Relay(id, len(answer), func(buf []byte) ([]byte, error) { return append(buf, answer...), nil })
		})
	})
	for _, tc := range []struct {
		name    string
		dial    DialFunc
		want    string // the answer, or a piece of the forwarder's error
		answers bool
	}{
		{"connects", func(addr string, timeout time.Duration) (net.Conn, error) {
			time.Sleep(timeout * 9 / 10)
			return tcpDial(addr, timeout)
		}, "answer:hello", true},
		{"fails", func(addr string, timeout time.Duration) (net.Conn, error) {
			time.Sleep(timeout)
			return nil, errors.New("no route to host")
		}, "no route to host", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fwd := New(Config{Dial: tc.dial})
			defer fwd.Close()
			middle := serveWith(t, func(c *ServerConn, id uint64, body []byte) {
				c.Add()
				if err := fwd.Forward(back, body, timeout, upstream{c, id}, id); err != nil {
					c.Error(id, err.Error())
					c.Done()
				}
			})
			p := New(Config{Dial: tcpDial})
			defer p.Close()
			o := newOutcome()
			start := time.Now()
			if err := p.Forward(middle, []byte("hello"), timeout, o, 1); err != nil {
				t.Fatal(err)
			}
			err := <-o.done
			took := time.Since(start)
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				t.Fatalf("the caller gave up on its live forwarder after %v: %v", took, err)
			case tc.answers && (err != nil || string(o.reply) != tc.want):
				t.Fatalf("after %v: reply %q, err %v; want %q", took, o.reply, err, tc.want)
			case !tc.answers && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("after %v: err %v; want the forwarder's dial error", took, err)
			}
			if took < timeout {
				t.Errorf("done after %v; the dial alone takes about %v", took, timeout)
			}
			if s := p.Stats(); s.Teardowns != 0 || s.OpenConns != 1 {
				t.Errorf("caller's pool: %+v; want its one connection kept", s)
			}
		})
	}
}

// TestForwardChecksEachCallOnItsOwnClock: forwarded calls with different
// timeouts share a connection, and each is checked on its own clock. A
// short call that starts first must not pace the waiting checks of a
// long one that outlives it, and a long call that starts first must not
// delay the expiry of a short one.
func TestForwardChecksEachCallOnItsOwnClock(t *testing.T) {
	const short, long = 40 * time.Millisecond, 400 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	addr := serveWith(t, func(c *ServerConn, id uint64, body []byte) {
		c.Add()
		var after time.Duration
		switch string(body) {
		case "fast":
			after = 5 * time.Millisecond
		case "slow":
			after = 300 * time.Millisecond
		default: // never answers
			go func() { <-release; c.Done() }()
			return
		}
		time.AfterFunc(after, func() {
			c.Relay(id, len(body), func(buf []byte) ([]byte, error) { return append(buf, body...), nil })
		})
	})
	p := New(Config{Dial: tcpDial})
	defer p.Close()
	if _, err := do(p, context.Background(), addr, []byte("fast"), time.Second); err != nil {
		t.Fatal(err)
	}

	fast, slow := newOutcome(), newOutcome()
	if err := p.Forward(addr, []byte("fast"), short, fast, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(addr, []byte("slow"), long, slow, 2); err != nil {
		t.Fatal(err)
	}
	if err := <-fast.done; err != nil {
		t.Fatalf("fast call: %v", err)
	}
	if err := <-slow.done; err != nil {
		t.Fatalf("slow call: %v", err)
	}
	// One check is due half a timeout in; a check every half short
	// timeout would have told the slow call's relay 15 times.
	if n := slow.waits.Load(); n > 2 {
		t.Errorf("the slow call's relay heard %d waiting checks in %v; want at most 2", n, 300*time.Millisecond)
	}

	q := New(Config{Dial: tcpDial}) // a connection whose clock is idle
	defer q.Close()
	if _, err := do(q, context.Background(), addr, []byte("fast"), time.Second); err != nil {
		t.Fatal(err)
	}
	if err := q.Forward(addr, []byte("slow"), long, slow, 3); err != nil {
		t.Fatal(err)
	}
	silent := newOutcome()
	start := time.Now()
	if err := q.Forward(addr, []byte("never"), short, silent, 4); err != nil {
		t.Fatal(err)
	}
	err := <-silent.done
	var ne net.Error
	if took := time.Since(start); !errors.As(err, &ne) || !ne.Timeout() || took > 2*short {
		t.Errorf("silent short call: %v after %v; want a timeout within %v", err, took, 2*short)
	}
	<-slow.done // failed with the connection the silent call took down
	if s := q.Stats(); s.Dials != 1 || s.Teardowns != 1 {
		t.Errorf("pool after the calls: %+v; want every call on the one connection", s)
	}
}
