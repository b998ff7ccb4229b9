// Package pool provides persistent, multiplexed wire connections for
// the p2p layer: each peer gets a small set of long-lived connections
// over which many concurrent request/response exchanges are in flight
// at once, correlated by envelope IDs.
//
// # Framing
//
// A pooled connection opens with the preamble line
// codec.PreambleMuxV2 ("CYCLOID-MUX/2\n"). The server echoes it back
// as the handshake ack; a peer that does not echo it is a dial failure.
// After the handshake both directions carry length-prefixed binary
// frames:
//
//	u32 length | u64 id | u8 status | body
//
// where length counts everything after itself, status 0 marks a
// payload body and status 1 an error-message body, and id 0 is a
// connection-level protocol error. The payload is the caller's
// business (the p2p layer's binary request and response messages); the
// pool only adds the correlation ID. Every frame — in either direction
// — is capped at MaxFrame bytes; an oversized frame is a protocol
// error, never an unbounded buffer.
//
// Writes on a connection go through a batching Writer (writer.go):
// under concurrent load, frames from many callers coalesce into fewer
// syscalls without adding latency to an idle connection.
//
// # Lifecycle
//
// Connections are created on demand: a call rides the peer's
// least-loaded connection unless that one already carries
// spreadInflight (32) calls, and then opens another, up to MaxPerPeer
// per peer. Connections are evicted after IdleTimeout of
// disuse, and torn down on any read, write, decode or per-call timeout
// failure. A teardown fails every call pending on the connection, and
// the caller's error handling (timeout accounting, the suspicion list)
// sees exactly what a failed dial would have shown it.
package pool

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/p2p/codec"
)

// DefaultMaxFrame caps a single envelope (either direction) at 1 MiB.
const DefaultMaxFrame = 1 << 20

// ErrFrameTooLarge reports a frame exceeding the configured cap.
var ErrFrameTooLarge = errors.New("pool: frame exceeds size limit")

// ErrClosed reports a call on a closed pool.
var ErrClosed = errors.New("pool: closed")

// ErrPeerSaturated reports a call rejected locally because the peer
// already has Config.MaxPerPeerInflight calls in flight. The peer was
// never contacted: this is backpressure, not a failure, and callers
// must treat it like a busy reply (back off, route around), never like
// a dead peer.
var ErrPeerSaturated = errors.New("pool: peer connections saturated")

// spreadInflight is the per-connection in-flight call count at which
// the pool prefers opening another connection to the peer (up to
// MaxPerPeer) over queueing on the least-loaded one.
const spreadInflight = 32

// binEnvelopeLen is the fixed id+status header inside every frame.
const binEnvelopeLen = 9

// DialFunc opens a transport connection, failing after at most timeout
// (the p2p Transport.Dial signature).
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// Event identifies a pool state change, for the owner's metrics.
type Event int

// Pool events, reported through Config.OnEvent.
const (
	EventDial      Event = iota // a new pooled connection was dialed
	EventReuse                  // a call rode an existing connection
	EventEviction               // an idle connection was evicted
	EventTeardown               // a connection failed and was torn down
	EventSaturated              // a call was rejected at the per-peer in-flight cap
)

// Config parameterizes a Pool. Dial is required; everything else
// defaults sensibly.
type Config struct {
	// Dial opens the underlying transport connections.
	Dial DialFunc
	// Codec is ignored: every connection speaks CYCLOID-MUX/2.
	//
	// Deprecated: kept so existing callers compile; it has no effect.
	Codec codec.Codec
	// MaxPerPeer caps the connections kept per peer address. Default 2.
	MaxPerPeer int
	// MaxPerPeerInflight, when positive, caps the total calls in flight
	// to one peer across all its connections; calls beyond the cap fail
	// immediately with ErrPeerSaturated instead of queueing unbounded
	// work onto a slow peer. The check races new registrations by
	// design (a few calls may slip past under churn); it is a pressure
	// valve, not an exact semaphore. 0 (the default) keeps the legacy
	// unlimited behavior.
	MaxPerPeerInflight int
	// MaxFrame caps one envelope in either direction. Default
	// DefaultMaxFrame.
	MaxFrame int
	// IdleTimeout evicts connections with no traffic for this long.
	// Default 60s.
	IdleTimeout time.Duration
	// OnEvent, when non-nil, receives pool lifecycle events (dials,
	// reuses, evictions, teardowns, saturation) for the owner's
	// telemetry. Called synchronously; must not block.
	OnEvent func(Event)
}

func (c *Config) defaults() {
	if c.MaxPerPeer == 0 {
		c.MaxPerPeer = 2
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 60 * time.Second
	}
}

// Stats is a cumulative snapshot of pool activity.
type Stats struct {
	Dials     uint64 // pooled connections opened
	Reuses    uint64 // calls that rode an existing connection
	Evictions uint64 // idle connections evicted
	Teardowns uint64 // connections torn down on failure
	Saturated uint64 // calls rejected at the per-peer in-flight cap
	OpenConns int    // connections currently open
	Inflight  int    // calls currently in flight across all connections
}

// Pool multiplexes request/response calls over per-peer persistent
// connections. All methods are safe for concurrent use.
type Pool struct {
	cfg Config

	mu        sync.Mutex
	peers     map[string][]*conn
	closed    bool
	lastSweep time.Time
	sweepTick uint // acquires since the last sweep-interval check

	dials, reuses, evictions, teardowns, saturated atomic.Uint64
}

// New creates a pool dialing through cfg.Dial.
func New(cfg Config) *Pool {
	cfg.defaults()
	if cfg.Dial == nil {
		panic("pool: Config.Dial is required")
	}
	return &Pool{
		cfg:       cfg,
		peers:     make(map[string][]*conn),
		lastSweep: time.Now(),
	}
}

func (p *Pool) event(e Event) {
	switch e {
	case EventDial:
		p.dials.Add(1)
	case EventReuse:
		p.reuses.Add(1)
	case EventEviction:
		p.evictions.Add(1)
	case EventTeardown:
		p.teardowns.Add(1)
	case EventSaturated:
		p.saturated.Add(1)
	}
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(e)
	}
}

// Stats returns a cumulative activity snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	open, inflight := 0, 0
	for _, conns := range p.peers {
		open += len(conns)
		for _, c := range conns {
			c.mu.Lock()
			inflight += c.inflight
			c.mu.Unlock()
		}
	}
	p.mu.Unlock()
	return Stats{
		Dials:     p.dials.Load(),
		Reuses:    p.reuses.Load(),
		Evictions: p.evictions.Load(),
		Teardowns: p.teardowns.Load(),
		Saturated: p.saturated.Load(),
		OpenConns: open,
		Inflight:  inflight,
	}
}

// result is one call's outcome, delivered by the reader goroutine. The
// payload aliases buf, which the caller releases via Reply.Release once
// decoded.
type result struct {
	payload []byte
	buf     *codec.Buffer
	err     error
}

// conn is one pooled connection and its multiplexing state.
type conn struct {
	p    *Pool
	addr string
	nc   net.Conn
	w    *Writer

	mu       sync.Mutex
	pending  map[uint64]chan result
	nextID   uint64
	inflight int
	lastUse  time.Time
	closed   bool
	closeErr error
}

// Reply is a completed exchange's response payload. It lives in a
// pooled buffer: decode it, then call Release.
type Reply struct {
	Payload []byte
	buf     *codec.Buffer
}

// Release returns the reply's backing buffer to the shared
// buffer pool. The payload must not be used afterwards.
func (r *Reply) Release() {
	if r.buf != nil {
		codec.PutBuffer(r.buf)
		r.buf = nil
		r.Payload = nil
	}
}

// chanPool recycles the per-call result channels. A channel is returned
// to the pool only when its one pending send can no longer happen: either
// the call consumed the result, or the channel was never registered in
// the pending map. Error paths that leave a registered channel behind
// abandon it to the garbage collector instead — a stale send into a
// reused channel would corrupt an unrelated call.
var chanPool sync.Pool

func getChan() chan result {
	if ch, ok := chanPool.Get().(chan result); ok {
		return ch
	}
	return make(chan result, 1)
}

// timerPool recycles the per-call timeout timers on the call hot path.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// DoBytes performs one request/response exchange with the peer at
// addr, reusing a pooled connection or dialing one. payload is one
// encoded request; it is copied into the connection's write batch, so
// the caller may reuse it once DoBytes returns. The exchange fails
// after at most timeout, additionally capped by ctx's deadline.
//
// The bin argument is deprecated, a leftover of the retired JSON
// protocol kept so existing callers compile: it must be true, and false
// fails before anything is dialed or written.
func (p *Pool) DoBytes(ctx context.Context, addr string, payload []byte, bin bool, timeout time.Duration) (Reply, error) {
	if !bin {
		return Reply{}, fmt.Errorf("pool: call %s: payload must be binary", addr)
	}
	l := binEnvelopeLen + len(payload)
	if l > p.cfg.MaxFrame {
		// Rejected before dialing: nothing is queued, and a connection
		// to the peer stays healthy.
		return Reply{}, fmt.Errorf("pool: request to %s: %w", addr, ErrFrameTooLarge)
	}
	if d, ok := ctx.Deadline(); ok {
		if rem := time.Until(d); rem < timeout {
			timeout = rem
		}
	}
	// A canceled or expired context means the caller is already gone:
	// fail before dialing rather than do work nobody will consume.
	if err := ctx.Err(); err != nil {
		return Reply{}, fmt.Errorf("pool: call %s: %w", addr, err)
	}
	if timeout <= 0 {
		return Reply{}, fmt.Errorf("pool: call %s: %w", addr, context.DeadlineExceeded)
	}
	c, err := p.acquire(addr, timeout)
	if err != nil {
		return Reply{}, err
	}
	return p.exchange(ctx, c, addr, payload, l, timeout)
}

// exchange registers one call on c, writes the request payload as one
// frame of l bytes after the length prefix, and waits for the
// correlated response, the timeout, or the context.
func (p *Pool) exchange(ctx context.Context, c *conn, addr string, payload []byte, l int, timeout time.Duration) (Reply, error) {
	// Last pre-enqueue check: the acquire may have burned the whole
	// deadline dialing. Don't write a frame whose caller is gone — the
	// peer would do the work and tear the connection down routing the
	// orphaned response.
	if err := ctx.Err(); err != nil {
		return Reply{}, fmt.Errorf("pool: call %s: %w", addr, err)
	}
	// Register the call before writing so a fast response cannot race
	// the pending map.
	ch := getChan()
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		chanPool.Put(ch) // never registered: no send can reach it
		return Reply{}, fmt.Errorf("pool: call %s: %w", addr, err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.inflight++
	// lastUse is refreshed only on completion (the deferred cleanup):
	// while the call is in flight, inflight > 0 already blocks eviction.
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.inflight--
		c.lastUse = time.Now()
		c.mu.Unlock()
	}()

	// The payload is copied into the writer's batch buffer during the
	// call, so the caller may reuse it as soon as Frame returns.
	werr := c.w.Frame(4+l, func(buf []byte) ([]byte, error) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
		buf = binary.LittleEndian.AppendUint64(buf, id)
		buf = append(buf, 0) // status: request payload
		return append(buf, payload...), nil
	})
	if werr != nil {
		c.teardown(fmt.Errorf("pool: write %s: %w", addr, werr))
		return Reply{}, fmt.Errorf("pool: write %s: %w", addr, werr)
	}

	t := getTimer(timeout)
	defer putTimer(t)
	select {
	case res := <-ch:
		chanPool.Put(ch) // unique send consumed: safe to recycle
		if res.err != nil {
			return Reply{}, fmt.Errorf("pool: call %s: %w", addr, res.err)
		}
		return Reply{Payload: res.payload, buf: res.buf}, nil
	case <-ctx.Done():
		// The response may still arrive, but the caller is gone; a
		// connection carrying an abandoned exchange is suspect, and
		// keeping it would let one stalled peer absorb calls forever.
		c.teardown(fmt.Errorf("pool: call %s: %w", addr, ctx.Err()))
		return Reply{}, fmt.Errorf("pool: call %s: %w", addr, ctx.Err())
	case <-t.C:
		c.teardown(fmt.Errorf("pool: call %s: timed out after %v", addr, timeout))
		return Reply{}, timeoutError{fmt.Sprintf("pool: call %s: no response within %v", addr, timeout)}
	}
}

// timeoutError satisfies net.Error, matching what a dial timeout
// returns so callers treat a hung pooled peer exactly like an
// unreachable one.
type timeoutError struct{ msg string }

func (e timeoutError) Error() string   { return e.msg }
func (e timeoutError) Timeout() bool   { return true }
func (e timeoutError) Temporary() bool { return true }

// acquire returns a live connection to addr, dialing one if the
// existing connections are absent or saturated.
func (p *Pool) acquire(addr string, timeout time.Duration) (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.sweepLocked()
	var best *conn
	bestLoad, totalLoad := 0, 0
	for _, c := range p.peers[addr] {
		c.mu.Lock()
		load, dead := c.inflight, c.closed
		c.mu.Unlock()
		if dead {
			continue
		}
		totalLoad += load
		if best == nil || load < bestLoad {
			best, bestLoad = c, load
		}
	}
	if m := p.cfg.MaxPerPeerInflight; m > 0 && totalLoad >= m {
		p.mu.Unlock()
		p.event(EventSaturated)
		return nil, fmt.Errorf("pool: call %s: %w", addr, ErrPeerSaturated)
	}
	if best != nil && (bestLoad < spreadInflight || len(p.peers[addr]) >= p.cfg.MaxPerPeer) {
		p.mu.Unlock()
		p.event(EventReuse)
		return best, nil
	}
	p.mu.Unlock()

	nc, err := p.cfg.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("pool: dial %s: %w", addr, err)
	}
	if err := handshake(nc, timeout); err != nil {
		nc.Close()
		return nil, fmt.Errorf("pool: handshake %s: %w", addr, err)
	}
	c := &conn{p: p, addr: addr, nc: nc, pending: make(map[uint64]chan result), lastUse: time.Now()}
	c.w = NewWriter(nc, timeout, func(err error) {
		c.teardown(fmt.Errorf("pool: write %s: %w", addr, err))
	})

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	if len(p.peers[addr]) >= p.cfg.MaxPerPeer {
		// A racing caller filled the cap while we dialed; ride the
		// least-loaded existing connection instead.
		var alt *conn
		altLoad := 0
		for _, ec := range p.peers[addr] {
			ec.mu.Lock()
			load, dead := ec.inflight, ec.closed
			ec.mu.Unlock()
			if !dead && (alt == nil || load < altLoad) {
				alt, altLoad = ec, load
			}
		}
		if alt != nil {
			p.mu.Unlock()
			nc.Close()
			p.event(EventReuse)
			return alt, nil
		}
	}
	p.peers[addr] = append(p.peers[addr], c)
	p.mu.Unlock()
	p.event(EventDial)
	go c.readLoop()
	return c, nil
}

// handshake opens a fresh connection: write codec.PreambleMuxV2 and
// wait for the server to echo it. Anything else — a close, other
// bytes, silence past timeout — fails the dial.
func handshake(nc net.Conn, timeout time.Duration) error {
	_ = nc.SetDeadline(time.Now().Add(timeout))
	if _, err := nc.Write([]byte(codec.PreambleMuxV2)); err != nil {
		return err
	}
	var ack [codec.PreambleLen]byte
	if _, err := io.ReadFull(nc, ack[:]); err != nil {
		// A build that predates CYCLOID-MUX/2 closes without a byte.
		return fmt.Errorf("no handshake ack: %w", err)
	}
	if string(ack[:]) != codec.PreambleMuxV2 {
		return fmt.Errorf("unexpected handshake ack %q", ack[:])
	}
	_ = nc.SetDeadline(time.Time{})
	return nil
}

// sweepLocked evicts idle connections; callers hold p.mu. The clock is
// consulted only every 64th call — reading it per acquire is measurable
// on the call hot path, and eviction deadlines are minutes-coarse.
func (p *Pool) sweepLocked() {
	if p.sweepTick++; p.sweepTick&63 != 0 {
		return
	}
	now := time.Now()
	if now.Sub(p.lastSweep) < p.cfg.IdleTimeout/4 {
		return
	}
	p.lastSweep = now
	for addr, conns := range p.peers {
		kept := conns[:0]
		for _, c := range conns {
			c.mu.Lock()
			idle := !c.closed && c.inflight == 0 && now.Sub(c.lastUse) > p.cfg.IdleTimeout
			c.mu.Unlock()
			if idle {
				c.close(errors.New("pool: connection evicted (idle)"))
				p.event(EventEviction)
				continue
			}
			kept = append(kept, c)
		}
		if len(kept) == 0 {
			delete(p.peers, addr)
		} else {
			p.peers[addr] = kept
		}
	}
}

// EvictIdle force-runs the idle sweep regardless of the sweep interval,
// for tests and shutdown paths.
func (p *Pool) EvictIdle() {
	p.mu.Lock()
	p.lastSweep = time.Time{}
	p.sweepTick = 63 // the next increment passes the tick gate
	p.sweepLocked()
	p.mu.Unlock()
}

// Close tears down every connection and fails all pending calls.
// Subsequent calls return ErrClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var all []*conn
	for _, conns := range p.peers {
		all = append(all, conns...)
	}
	p.peers = make(map[string][]*conn)
	p.mu.Unlock()
	for _, c := range all {
		c.close(ErrClosed)
	}
	return nil
}

// teardown removes the connection from the pool and closes it, failing
// every pending call — the failure-aware path that makes a pooled peer
// death look exactly like a dial failure to the p2p layer.
func (c *conn) teardown(err error) {
	p := c.p
	p.mu.Lock()
	conns := p.peers[c.addr]
	kept := conns[:0]
	found := false
	for _, ec := range conns {
		if ec == c {
			found = true
			continue
		}
		kept = append(kept, ec)
	}
	if len(kept) == 0 {
		delete(p.peers, c.addr)
	} else {
		p.peers[c.addr] = kept
	}
	p.mu.Unlock()
	if found {
		p.event(EventTeardown)
	}
	c.close(err)
}

// close marks the connection dead and fails its pending calls.
func (c *conn) close(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = err
	pending := c.pending
	c.pending = make(map[uint64]chan result)
	c.mu.Unlock()
	c.nc.Close()
	for _, ch := range pending {
		ch <- result{err: err}
	}
}

// readLoop decodes response frames — u32 length, u64 id, u8 status,
// body — and routes them to pending calls. Response bodies land in
// pooled buffers that travel to the caller and come back via
// Reply.Release. Any failure — I/O error, malformed or oversized frame
// — tears the connection down.
func (c *conn) readLoop() {
	br := bufio.NewReader(c.nc)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.teardown(fmt.Errorf("pool: read %s: %w", c.addr, err))
			return
		}
		l := int(binary.LittleEndian.Uint32(hdr[:]))
		if l < binEnvelopeLen || l > c.p.cfg.MaxFrame {
			c.teardown(fmt.Errorf("pool: read %s: %w", c.addr, ErrFrameTooLarge))
			return
		}
		fb := codec.GetBufferSize(l)
		fb.B = fb.B[:l]
		if _, err := io.ReadFull(br, fb.B); err != nil {
			codec.PutBuffer(fb)
			c.teardown(fmt.Errorf("pool: read %s: %w", c.addr, err))
			return
		}
		id := binary.LittleEndian.Uint64(fb.B)
		status := fb.B[8]
		body := fb.B[binEnvelopeLen:]
		if id == 0 {
			msg := "protocol error"
			if status != 0 && len(body) > 0 {
				msg = string(body)
			}
			codec.PutBuffer(fb)
			c.teardown(fmt.Errorf("pool: %s: %s", c.addr, msg))
			return
		}
		if status != 0 {
			err := errors.New(string(body))
			codec.PutBuffer(fb)
			c.route(id, result{err: err})
			continue
		}
		c.route(id, result{payload: body, buf: fb})
	}
}

// route delivers one result to the pending call registered under id, or
// discards it (releasing any buffer) when the call already timed out.
func (c *conn) route(id uint64, res result) {
	c.mu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ch == nil {
		if res.buf != nil {
			codec.PutBuffer(res.buf)
		}
		return
	}
	ch <- res
}
