package pool

import (
	"net"
	"sync"
	"time"

	"cycloid/p2p/codec"
)

// Writer coalesces concurrent frame writes on one connection into as
// few Write syscalls as possible. Callers append complete frames under
// the writer's lock; the first appender becomes the flusher and keeps
// writing until the batch buffer is drained, while later appenders just
// queue their bytes and return. Under concurrent load many frames ride
// one syscall; with a single caller every frame is written immediately,
// so batching never adds latency to an idle connection: the batch stays
// open exactly as long as the in-progress Write keeps the flusher busy.
//
// Write deadlines are amortised. Re-arming a deadline before every
// Write costs a timer operation per frame (on net.Pipe, a fresh
// time.AfterFunc and a Stop), so the writer keeps the deadline it last
// set and moves it to now+timeout only when less than timeout/2 of it
// remains. The check runs before every Write, the first after an idle
// gap included, so a stalled Write fails between timeout/2 and timeout
// after it starts.
type Writer struct {
	nc      net.Conn
	timeout time.Duration // bound on one stalled Write
	onErr   func(error)   // invoked (without the lock) on write failure

	// deadline is the write deadline last set on nc. Only the active
	// flusher touches it, and flushers hand over through mu.
	deadline time.Time

	mu       sync.Mutex
	buf      []byte        // frames queued for the next Write
	box      *codec.Buffer // shared-pool buffer backing buf while it holds a large batch
	own      []byte        // the connection's buffer box displaced, restored after box's Write
	spare    []byte        // the connection's other buffer, swapped with buf around each Write
	flushing bool
	err      error // sticky: first write failure poisons the writer
}

// Batch-buffer retention. A connection owns at most two batch buffers
// of at most codec.SmallBuf each, grown by append to the size its
// envelopes and routing steps need — the steady state costs no
// allocation and almost no memory per connection. A frame that would
// push the batch past the small class moves it into a buffer of the
// right size class from codec's shared pools (box), which returns there
// as soon as its Write completes, and the connection's buffer it
// displaced (own) takes its place again. Large-frame memory then scales
// with frames in flight, not with the number of connections that ever
// carried one.

// reserveLocked makes room for n more bytes in the batch buffer. Small
// batches are left to grow by append; a batch that would outgrow the
// small class moves into a shared-pool buffer of the class that fits
// it, at least doubling so a burst of queued frames grows
// geometrically. Caller holds w.mu.
func (w *Writer) reserveLocked(n int) {
	need := len(w.buf) + n
	if need <= cap(w.buf) || need <= codec.SmallBuf {
		return
	}
	nb := codec.GetBufferSize(max(need, 2*cap(w.buf)))
	nb.B = append(nb.B, w.buf...)
	if w.box != nil {
		w.box.B = w.buf[:0]
		codec.PutBuffer(w.box)
	} else {
		w.own = w.buf[:0]
	}
	w.buf, w.box = nb.B, nb
}

// retireLocked takes back a written batch buffer: a shared-pool buffer
// returns to its pool, a small buffer of the connection's own becomes
// the spare if there is none, and one an unsized frame grew past the
// small class is left to the collector. Caller holds w.mu.
func (w *Writer) retireLocked(b []byte, box *codec.Buffer) {
	switch {
	case box != nil:
		box.B = b[:0] // b may have outgrown the box's own array
		codec.PutBuffer(box)
	case w.spare == nil && cap(b) <= codec.SmallBuf:
		w.spare = b[:0]
	}
}

// NewWriter wraps nc. timeout bounds each underlying Write: one that
// stalls fails between timeout/2 and timeout after it starts. onErr,
// when non-nil, is called once with the first write failure so the
// owner can tear the connection down.
func NewWriter(nc net.Conn, timeout time.Duration, onErr func(error)) *Writer {
	return &Writer{nc: nc, timeout: timeout, onErr: onErr}
}

// Frame appends one frame via fill, which must append exactly one
// complete frame to the given buffer and return the extended slice.
// size is the frame's expected length when the caller knows it (a
// pre-encoded request, a fetch reply), 0 otherwise: the batch buffer is
// grown to hold it from the right size class before fill runs, so a
// large frame is not reallocated by append. A fill error rolls the
// buffer back and is returned with the connection still healthy; a nil
// return means the frame was queued or written. If a previous Write
// failed, Frame fails fast with that sticky error (onErr has already
// run).
func (w *Writer) Frame(size int, fill func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	if err := w.appendLocked(size, fill); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.flushing {
		// An active flusher will pick these bytes up on its next swap.
		w.mu.Unlock()
		return nil
	}
	w.flushLocked()
	err := w.err
	w.mu.Unlock()
	return err
}

// Queue appends one frame via fill like Frame, but never starts a flush
// itself: the bytes ride an already-active flusher's next swap, or wait
// for a later Frame or Flush call. Callers that know more frames are
// imminent (a server draining a burst of pipelined requests) use it to
// put many responses into one Write.
func (w *Writer) Queue(size int, fill func([]byte) ([]byte, error)) error {
	w.mu.Lock()
	err := w.appendLocked(size, fill)
	w.mu.Unlock()
	return err
}

// appendLocked runs fill on the batch buffer after reserving size
// bytes, rolling back on a fill error. Caller holds w.mu.
func (w *Writer) appendLocked(size int, fill func([]byte) ([]byte, error)) error {
	if w.err != nil {
		return w.err
	}
	w.reserveLocked(size)
	pre := len(w.buf)
	b, err := fill(w.buf)
	if err != nil {
		w.buf = w.buf[:pre]
		return err
	}
	w.buf = b
	return nil
}

// Flush writes any queued frames now, unless an active flusher will
// pick them up anyway. It returns the writer's sticky error, if any.
func (w *Writer) Flush() error {
	w.mu.Lock()
	if w.err == nil && !w.flushing && len(w.buf) > 0 {
		w.flushLocked()
	}
	err := w.err
	w.mu.Unlock()
	return err
}

// flushLocked drains the batch buffer, releasing the lock around each
// Write so concurrent Frame calls keep appending into the other buffer
// of the double-buffer pair.
func (w *Writer) flushLocked() {
	w.flushing = true
	var failed error
	for len(w.buf) > 0 && w.err == nil {
		out, box := w.buf, w.box
		if box != nil {
			w.buf, w.box, w.own = w.own, nil, nil
		} else {
			w.buf, w.spare = w.spare, nil
		}
		w.mu.Unlock()
		w.armDeadline()
		_, err := w.nc.Write(out)
		w.mu.Lock()
		w.retireLocked(out, box)
		if err != nil {
			w.err = err
			failed = err
		}
	}
	w.flushing = false
	if failed != nil && w.onErr != nil {
		w.mu.Unlock()
		w.onErr(failed)
		w.mu.Lock()
	}
}

// armDeadline moves the write deadline to now+timeout when less than
// timeout/2 of the current one remains, so the Write about to start has
// between timeout/2 and timeout to complete. Called by the active
// flusher, without the lock.
func (w *Writer) armDeadline() {
	now := time.Now()
	if w.deadline.Sub(now) >= w.timeout/2 {
		return
	}
	w.deadline = now.Add(w.timeout)
	_ = w.nc.SetWriteDeadline(w.deadline)
}
