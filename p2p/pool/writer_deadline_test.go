package pool

import (
	"net"
	"sync"
	"testing"
	"time"
)

// deadlineConn counts the write deadlines a Writer sets, and checks at
// every Write that the deadline in force leaves the Write between
// timeout/2 and timeout to complete — the writer's stall contract.
type deadlineConn struct {
	net.Conn
	timeout time.Duration

	mu         sync.Mutex
	sets       int
	deadline   time.Time
	violations []time.Duration // remaining budget at offending Writes
}

func (c *deadlineConn) SetWriteDeadline(d time.Time) error {
	c.mu.Lock()
	c.sets++
	c.deadline = d
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(d)
}

func (c *deadlineConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	// The writer checks the deadline a moment before the Write starts;
	// allow that moment.
	const skew = 20 * time.Millisecond
	if rem := time.Until(c.deadline); rem < c.timeout/2-skew || rem > c.timeout {
		c.violations = append(c.violations, rem)
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// TestWriterStalledFrameFails: a Frame to a peer that never reads fails
// with the write error, and runs onErr, between timeout/2 and timeout
// (plus scheduling slack) after the Frame starts — even when the
// writer's deadline was last set long before.
func TestWriterStalledFrameFails(t *testing.T) {
	const timeout = 200 * time.Millisecond
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	failed := make(chan error, 1)
	w := NewWriter(client, timeout, func(err error) { failed <- err })

	// One frame the peer does read, so the writer has a deadline armed;
	// then let most of it run down before the stalling Frame.
	go func() { _, _ = server.Read(make([]byte, 64)) }()
	if err := w.Frame(0, sized(16)); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	time.Sleep(timeout * 3 / 4)

	start := time.Now()
	err := w.Frame(0, sized(16))
	took := time.Since(start)
	if err == nil {
		t.Fatal("a Frame nobody reads succeeded")
	}
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Errorf("stalled Frame failed with %v, want a timeout", err)
	}
	const slack = 150 * time.Millisecond
	if took < timeout/2 || took > timeout+slack {
		t.Errorf("stalled Frame failed after %v, want between %v and %v", took, timeout/2, timeout+slack)
	}
	select {
	case oerr := <-failed:
		if oerr != err {
			t.Errorf("onErr got %v, Frame returned %v", oerr, err)
		}
	default:
		t.Error("onErr not called by the time the failed Frame returned")
	}
}

// TestWriterIdleGapThenFrame: a deadline armed before an idle gap
// longer than the timeout has long expired; the next Frame must re-arm
// it and succeed, not fail on the stale one.
func TestWriterIdleGapThenFrame(t *testing.T) {
	const timeout = 50 * time.Millisecond
	w := drainPipe(t, timeout)
	if err := w.Frame(0, sized(64)); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	time.Sleep(3 * timeout)
	if err := w.Frame(0, sized(64)); err != nil {
		t.Fatalf("frame after a %v idle gap failed: %v", 3*timeout, err)
	}
}

// TestWriterDeadlineAmortised: frames arriving faster than timeout/2
// set at most one write deadline per timeout/2, and every Write still
// starts with between timeout/2 and timeout of deadline left.
func TestWriterDeadlineAmortised(t *testing.T) {
	const timeout = 100 * time.Millisecond
	client, server := net.Pipe()
	defer server.Close()
	defer client.Close()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	dc := &deadlineConn{Conn: client, timeout: timeout}
	w := NewWriter(dc, timeout, nil)

	start := time.Now()
	frames := 0
	for time.Since(start) < 4*timeout {
		if err := w.Frame(0, sized(32)); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	dc.mu.Lock()
	defer dc.mu.Unlock()
	limit := int(elapsed/(timeout/2)) + 1
	t.Logf("%d frames in %v set %d deadlines (limit %d)", frames, elapsed, dc.sets, limit)
	if dc.sets > limit {
		t.Errorf("%d frames in %v set %d write deadlines, want at most %d (one per %v)", frames, elapsed, dc.sets, limit, timeout/2)
	}
	if dc.sets < 2 {
		t.Errorf("%d deadlines over %v: the writer stopped moving its deadline", dc.sets, elapsed)
	}
	if len(dc.violations) > 0 {
		t.Errorf("%d Writes started outside the [%v, %v] deadline window, e.g. with %v left",
			len(dc.violations), timeout/2, timeout, dc.violations[0])
	}
}
