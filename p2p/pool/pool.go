// Package pool holds both ends of the p2p layer's wire protocol,
// CYCLOID-MUX/2. Its client end, Pool, keeps a small set of
// long-lived connections to each peer, over which many concurrent
// request/response exchanges are in flight at once, correlated by
// envelope IDs. Its server end, Server (server.go), accepts
// connections and serves their request frames through one Handler.
//
// # Framing
//
// A connection opens with the preamble line codec.PreambleMuxV2
// ("CYCLOID-MUX/2\n"). The server echoes it back as the handshake ack;
// a peer that does not echo it is a dial failure. After the handshake
// both directions carry length-prefixed binary frames:
//
//	u32 length | u64 id | u8 status | body
//
// where length counts everything after itself, status 0 marks a
// payload body, status 1 an error-message body and status 2 an
// interim progress frame with no body (the callee of a forwarded call
// is alive and still working on it), and id 0 is a connection-level
// protocol error. The payload is the caller's
// business (the p2p layer's binary request and response messages); the
// pool only adds the correlation ID. Every frame — in either direction
// — is capped at the protocol constant DefaultMaxFrame; an oversized
// frame is a protocol error, never an unbounded buffer. Both ends read
// frames with readFrame and write them with writeFrame (frame.go).
//
// Writes on a connection go through a batching Writer (writer.go):
// under concurrent load, frames from many callers coalesce into fewer
// syscalls without adding latency to an idle connection.
//
// # Forwarding
//
// A server's handler may pass a call on instead of answering it: it
// sends the request to the next peer with Pool.Forward, which returns
// at once, and hands the answer, when it reaches the connection's read
// loop, back upstream with ServerConn.Relay. Neither blocks, so read
// loops can forward to each other without ever waiting on one another's
// writes. A forwarded call may stay silent for at most its timeout; a
// handler still waiting on its own downstream says it is alive with
// ServerConn.Progress.
//
// # Lifecycle
//
// Connections are created on demand: a call rides the peer's
// least-loaded connection unless that one already carries
// spreadInflight (32) calls, and then opens another, up to maxPerPeer
// (2) per peer. Connections are evicted after IdleTimeout of
// disuse, and torn down on any read, write, decode or per-call timeout
// failure. A teardown fails every call pending on the connection, and
// the caller's error handling (timeout accounting, the suspicion list)
// sees exactly what a failed dial would have shown it.
package pool

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/p2p/codec"
)

// DefaultMaxFrame caps a single frame (either direction) at 1 MiB. It
// is a protocol constant: every node sends and accepts the same cap.
const DefaultMaxFrame = 1 << 20

// ErrFrameTooLarge reports a frame past DefaultMaxFrame, or one whose
// length prefix is shorter than its envelope.
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
// maxPerPeer) over queueing on the least-loaded one.
const spreadInflight = 32

// maxPerPeer caps the connections kept per peer address.
const maxPerPeer = 2

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
	numEvents
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
	// MaxPerPeerInflight, when positive, caps the total calls in flight
	// to one peer across all its connections; calls beyond the cap fail
	// immediately with ErrPeerSaturated instead of queueing unbounded
	// work onto a slow peer. The check races new registrations by
	// design (a few calls may slip past under churn); it is a pressure
	// valve, not an exact semaphore. 0 (the default) keeps the legacy
	// unlimited behavior.
	MaxPerPeerInflight int
	// IdleTimeout evicts connections with no traffic for this long.
	// Default 60s.
	IdleTimeout time.Duration
	// OnEvent, when non-nil, receives pool lifecycle events (dials,
	// reuses, evictions, teardowns, saturation) for the owner's
	// telemetry. Called synchronously; must not block.
	OnEvent func(Event)
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

	events [numEvents]atomic.Uint64 // counts by Event
}

// New creates a pool dialing through cfg.Dial.
func New(cfg Config) *Pool {
	if cfg.Dial == nil {
		panic("pool: Config.Dial is required")
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	return &Pool{
		cfg:       cfg,
		peers:     make(map[string][]*conn),
		lastSweep: time.Now(),
	}
}

func (p *Pool) event(e Event) {
	p.events[e].Add(1)
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
		Dials:     p.events[EventDial].Load(),
		Reuses:    p.events[EventReuse].Load(),
		Evictions: p.events[EventEviction].Load(),
		Teardowns: p.events[EventTeardown].Load(),
		Saturated: p.events[EventSaturated].Load(),
		OpenConns: open,
		Inflight:  inflight,
	}
}

// Peers returns the addresses the pool holds live connections to,
// sorted.
func (p *Pool) Peers() []string {
	p.mu.Lock()
	out := make([]string, 0, len(p.peers))
	for addr, conns := range p.peers {
		if slices.ContainsFunc(conns, func(c *conn) bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return !c.closed
		}) {
			out = append(out, addr)
		}
	}
	p.mu.Unlock()
	slices.Sort(out)
	return out
}

// result is one call's outcome, delivered by the reader goroutine: a
// reply the caller releases once decoded, or an error.
type result struct {
	Reply
	err error
}

// conn is one pooled connection and its multiplexing state.
type conn struct {
	p    *Pool
	addr string
	nc   net.Conn
	w    *Writer

	mu       sync.Mutex
	pending  map[uint64]waiter
	nextID   uint64
	inflight int
	lastUse  time.Time
	closed   bool
	closeErr error
	// tick runs check at tickAt (on the pool clock, since), the next
	// moment a forwarded call in flight is due a waiting check or may
	// have gone silent for too long; ticking reports it armed.
	tick    *time.Timer
	tickAt  time.Duration
	ticking bool
}

// waiter is one call awaiting its reply: a DoBytes caller blocked on
// ch, or a forwarded call whose outcome goes to relay under tag. For a
// forwarded call, heard is when the peer was last heard from on it (the
// send, or its latest progress frame), told when relay last heard that
// the call is waiting, and timeout how long the peer may stay silent
// before it counts as gone. Both times are on the pool clock (since),
// 8 bytes each where a time.Time takes 24: every call a connection has
// in flight holds a waiter in its pending map.
type waiter struct {
	ch      chan result
	relay   Relay
	tag     uint64
	heard   time.Duration
	told    time.Duration
	timeout time.Duration
}

// clock is the pool clock's origin; since reads the clock, monotonic.
var clock = time.Now()

func since() time.Duration { return time.Since(clock) }

// deliver hands the call its outcome.
func (w waiter) deliver(res result) {
	if w.relay != nil {
		w.relay.Complete(w.tag, res.Reply, res.err)
		return
	}
	w.ch <- res
}

// Relay receives the outcome of a Forward call. Its methods run on the
// connection's read loop, or on whatever goroutine failed the call (a
// teardown, the timeout check), so they must not block: a forwarder
// hands the reply on with ServerConn.Relay, or tries its next candidate
// with a Forward of its own.
type Relay interface {
	// Complete delivers the call's reply, which the relay releases once
	// done with it, or its failure — exactly once per successful
	// Forward, tagged with the tag Forward was given.
	Complete(tag uint64, rep Reply, err error)
	// Waiting reports that the call is still in flight: as it starts
	// dialing, then every quarter to half timeout while the dial runs
	// and, once sent, while its peer keeps being heard from. A forwarder
	// tells its own caller it is alive (ServerConn.Progress).
	Waiting(tag uint64)
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
	if binEnvelopeLen+len(payload) > DefaultMaxFrame {
		// Rejected before dialing: nothing is queued, and a connection
		// to the peer stays healthy.
		return Reply{}, fmt.Errorf("pool: request to %s: %w", addr, ErrFrameTooLarge)
	}
	if d, ok := ctx.Deadline(); ok {
		timeout = min(timeout, time.Until(d))
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
	c.pending[id] = waiter{ch: ch}
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
	werr := c.w.writeFrame(id, statusPayload, len(payload), flushNow, func(buf []byte) ([]byte, error) {
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
		return res.Reply, nil
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

// Forward sends one request to the peer at addr and returns without
// waiting for the reply: its outcome goes to r.Complete under tag, on
// the connection's read loop when the reply arrives. payload is copied,
// so the caller may reuse it once Forward returns. Forward never blocks
// on the network — the frame is written by a flusher goroutine, and a
// first call to addr dials on a goroutine of its own — so a read loop
// may forward what it reads. An error means nothing was sent and r
// hears nothing of this call; after a nil return r hears exactly once.
//
// The peer may go quiet for at most timeout: it keeps a slow call alive
// with progress frames (ServerConn.Progress), and one silent for longer
// counts as gone — its connection is torn down, failing the call like a
// dial failure. Meanwhile r.Waiting runs every quarter to half timeout,
// and as a dial starts.
func (p *Pool) Forward(addr string, payload []byte, timeout time.Duration, r Relay, tag uint64) error {
	if binEnvelopeLen+len(payload) > DefaultMaxFrame {
		return fmt.Errorf("pool: request to %s: %w", addr, ErrFrameTooLarge)
	}
	if timeout <= 0 {
		return fmt.Errorf("pool: call %s: %w", addr, context.DeadlineExceeded)
	}
	c, err := p.reuse(addr)
	if err != nil {
		return err
	}
	if c != nil {
		return c.forward(payload, timeout, r, tag, flushAsync, 0)
	}
	go p.dialForward(addr, append([]byte(nil), payload...), timeout, r, tag)
	return nil
}

// dialForward dials addr for a Forward call and sends req there. A dial
// may take the whole timeout with no frame to show for it, so r hears
// that the call is waiting as the dial starts and every half timeout
// while it runs; the sent call's waiting checks go on from the last.
func (p *Pool) dialForward(addr string, req []byte, timeout time.Duration, r Relay, tag uint64) {
	var (
		mu      sync.Mutex
		dialing = true
		told    = since()
		tick    *time.Timer
	)
	r.Waiting(tag)
	mu.Lock()
	tick = time.AfterFunc(timeout/2, func() {
		mu.Lock()
		on := dialing
		if on {
			told = since()
			tick.Reset(timeout / 2)
		}
		mu.Unlock()
		if on {
			r.Waiting(tag)
		}
	})
	mu.Unlock()
	c, err := p.acquire(addr, timeout)
	mu.Lock()
	dialing = false
	tick.Stop()
	mu.Unlock()
	if err == nil {
		err = c.forward(req, timeout, r, tag, flushNow, told)
	}
	if err != nil {
		r.Complete(tag, Reply{}, err)
	}
}

// forward registers a forwarded call on c, whose relay last heard that
// it is waiting at told (pool clock; zero: now), and writes its frame
// as mode says.
// An error means the call was never registered, or was taken back
// before anything failed it.
func (c *conn) forward(payload []byte, timeout time.Duration, r Relay, tag uint64, mode flushMode, told time.Duration) error {
	now := since()
	if told == 0 {
		told = now
	}
	c.mu.Lock()
	if c.closed {
		err := c.closeErr
		c.mu.Unlock()
		return fmt.Errorf("pool: call %s: %w", c.addr, err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = waiter{relay: r, tag: tag, heard: now, told: told, timeout: timeout}
	c.inflight++
	// A fault-free call ends long before its first check is due, and the
	// tick armed for the oldest call in flight is never later than this
	// one's: the timer is reset only when the connection was idle, or
	// for a call with a shorter timeout than the rest.
	if at := told + timeout/2; !c.ticking || at < c.tickAt {
		c.ticking, c.tickAt = true, at
		if c.tick == nil {
			c.tick = time.AfterFunc(at-now, c.check)
		} else {
			c.tick.Reset(at - now)
		}
	}
	c.mu.Unlock()
	werr := c.w.writeFrame(id, statusPayload, len(payload), mode, func(buf []byte) ([]byte, error) {
		return append(buf, payload...), nil
	})
	if werr == nil {
		return nil
	}
	c.mu.Lock()
	_, mine := c.pending[id]
	if mine {
		delete(c.pending, id)
		c.inflight--
	}
	c.mu.Unlock()
	if !mine {
		return nil // the teardown that poisoned the writer failed the call through r
	}
	c.teardown(fmt.Errorf("pool: write %s: %w", c.addr, werr))
	return fmt.Errorf("pool: write %s: %w", c.addr, werr)
}

// check is the forwarded calls' clock, run at tickAt while any is in
// flight. A call whose peer has been silent for its whole timeout tears
// the connection down. Every other call's relay hears that it is still
// waiting once half a timeout has passed since it last heard so — or a
// quarter, so that calls due close together share one check — and the
// clock is set for the next call due either.
func (c *conn) check() {
	now := since()
	var waiting []waiter
	var expired, next time.Duration
	c.mu.Lock()
	for id, w := range c.pending {
		if w.relay == nil {
			continue
		}
		if now-w.heard >= w.timeout {
			expired = w.timeout
			break
		}
		if now-w.told >= w.timeout/4 {
			w.told = now
			c.pending[id] = w
			waiting = append(waiting, w)
		}
		at := min(w.told+w.timeout/2, w.heard+w.timeout)
		if next == 0 || at < next {
			next = at
		}
	}
	c.ticking = !c.closed && expired == 0 && next != 0
	if c.ticking {
		c.tickAt = next
		c.tick.Reset(next - now)
	}
	c.mu.Unlock()
	if expired > 0 {
		c.teardown(timeoutError{fmt.Sprintf("pool: call %s: no response within %v", c.addr, expired)})
		return
	}
	for _, w := range waiting {
		w.relay.Waiting(w.tag)
	}
}

// reuse returns a live connection to addr that can take another call,
// or nil when one has to be dialed.
func (p *Pool) reuse(addr string) (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	p.sweepLocked()
	best, bestLoad, totalLoad := p.leastLoadedLocked(addr)
	if m := p.cfg.MaxPerPeerInflight; m > 0 && totalLoad >= m {
		p.mu.Unlock()
		p.event(EventSaturated)
		return nil, fmt.Errorf("pool: call %s: %w", addr, ErrPeerSaturated)
	}
	if best != nil && (bestLoad < spreadInflight || len(p.peers[addr]) >= maxPerPeer) {
		p.mu.Unlock()
		p.event(EventReuse)
		return best, nil
	}
	p.mu.Unlock()
	return nil, nil
}

// acquire returns a live connection to addr, dialing one if the
// existing connections are absent or saturated.
func (p *Pool) acquire(addr string, timeout time.Duration) (*conn, error) {
	if c, err := p.reuse(addr); c != nil || err != nil {
		return c, err
	}

	nc, err := p.cfg.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("pool: dial %s: %w", addr, err)
	}
	if err := handshake(nc, timeout); err != nil {
		nc.Close()
		return nil, fmt.Errorf("pool: handshake %s: %w", addr, err)
	}
	c := &conn{p: p, addr: addr, nc: nc, pending: make(map[uint64]waiter), lastUse: time.Now()}
	c.w = NewWriter(nc, timeout, func(err error) {
		c.teardown(fmt.Errorf("pool: write %s: %w", addr, err))
	})

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	if len(p.peers[addr]) >= maxPerPeer {
		// A racing caller filled the cap while we dialed; ride the
		// least-loaded existing connection instead.
		if alt, _, _ := p.leastLoadedLocked(addr); alt != nil {
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

// leastLoadedLocked returns addr's live connection with the fewest
// calls in flight, that count, and the calls in flight across all of
// addr's live connections. Caller holds p.mu.
func (p *Pool) leastLoadedLocked(addr string) (best *conn, bestLoad, total int) {
	for _, c := range p.peers[addr] {
		c.mu.Lock()
		load, dead := c.inflight, c.closed
		c.mu.Unlock()
		if dead {
			continue
		}
		total += load
		if best == nil || load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best, bestLoad, total
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
		p.keepLocked(addr, slices.DeleteFunc(conns, func(c *conn) bool {
			c.mu.Lock()
			idle := !c.closed && c.inflight == 0 && now.Sub(c.lastUse) > p.cfg.IdleTimeout
			c.mu.Unlock()
			if idle {
				c.close(errors.New("pool: connection evicted (idle)"))
				p.event(EventEviction)
			}
			return idle
		}))
	}
}

// keepLocked stores what is left of addr's connections, dropping the
// entry once none are. Caller holds p.mu.
func (p *Pool) keepLocked(addr string, conns []*conn) {
	if len(conns) == 0 {
		delete(p.peers, addr)
	} else {
		p.peers[addr] = conns
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
	i := slices.Index(p.peers[c.addr], c)
	if i >= 0 {
		p.keepLocked(c.addr, slices.Delete(p.peers[c.addr], i, i+1))
	}
	p.mu.Unlock()
	if i >= 0 {
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
	c.pending = make(map[uint64]waiter)
	for _, w := range pending {
		if w.relay != nil {
			c.inflight--
		}
	}
	c.mu.Unlock()
	c.nc.Close()
	_ = c.w.Close()
	for _, w := range pending {
		w.deliver(result{err: err})
	}
}

// readLoop reads response frames and routes them to pending calls.
// Response bodies land in pooled buffers that travel to the caller and
// come back via Reply.Release. Any failure — I/O error, malformed or
// oversized frame — tears the connection down.
func (c *conn) readLoop() {
	br := bufio.NewReader(c.nc)
	for {
		id, status, body, buf, err := readFrame(br)
		if err != nil {
			c.teardown(fmt.Errorf("pool: read %s: %w", c.addr, err))
			return
		}
		switch {
		case id == 0:
			msg := "protocol error"
			if status != statusPayload && len(body) > 0 {
				msg = string(body)
			}
			codec.PutBuffer(buf)
			c.teardown(fmt.Errorf("pool: %s: %s", c.addr, msg))
			return
		case status == statusProgress:
			codec.PutBuffer(buf)
			c.heard(id)
		case status != statusPayload:
			err := errors.New(string(body))
			codec.PutBuffer(buf)
			c.route(id, result{err: err})
		default:
			c.route(id, result{Reply: Reply{Payload: body, buf: buf}})
		}
	}
}

// route delivers one result to the pending call registered under id, or
// discards it (releasing any buffer) when the call already timed out.
func (c *conn) route(id uint64, res result) {
	c.mu.Lock()
	w, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
		if w.relay != nil {
			c.inflight--
			c.lastUse = time.Now()
		}
	}
	c.mu.Unlock()
	if !ok {
		res.Release()
		return
	}
	w.deliver(res)
}

// heard notes a progress frame for the forwarded call under id.
func (c *conn) heard(id uint64) {
	c.mu.Lock()
	if w, ok := c.pending[id]; ok && w.relay != nil {
		w.heard = since()
		c.pending[id] = w
	}
	c.mu.Unlock()
}
