package p2p

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/pool"
)

// Wire protocol. Every exchange rides the node's connection pool
// (p2p/pool) as one CYCLOID-MUX/2 frame each way: length-prefixed
// binary envelopes (p2p/codec/binary.go) multiplexed over a few
// persistent connections per peer. It is the only protocol a node
// speaks or accepts. Every message carries the sender's overlay
// identity so receivers can learn addresses opportunistically.

// Type aliases onto the codec envelope types, so the overlay code
// constructs and consumes the wire structs directly.
type (
	// WireEntry is an overlay node reference on the wire.
	WireEntry = codec.Entry
	// WireItem is one stored value with its replication metadata.
	WireItem = codec.Item
	// WireState is a node's full routing state on the wire.
	WireState = codec.State

	request  = codec.Request
	response = codec.Response
)

func wireEntry(e entry) WireEntry { return WireEntry{K: e.ID.K, A: e.ID.A, Addr: e.Addr} }

func toEntry(w WireEntry) entry {
	return entry{ID: ids.CycloidID{K: w.K, A: w.A}, Addr: w.Addr}
}

func wirePtr(e *entry) *WireEntry {
	if e == nil {
		return nil
	}
	w := wireEntry(*e)
	return &w
}

func entryPtr(w *WireEntry) *entry {
	if w == nil {
		return nil
	}
	e := toEntry(*w)
	return &e
}

// call performs one request/response exchange with a peer. A connection
// or protocol failure is the live-network analogue of the paper's timeout.
func (n *Node) call(addr string, req request) (response, error) {
	return n.callCtx(context.Background(), addr, req)
}

// callCtx is call with the per-contact budget capped by the caller's
// context deadline: each dial costs at most min(DialTimeout, time left
// on ctx), so one blackholed peer cannot stall a whole operation for
// the full dial-timeout ladder.
func (n *Node) callCtx(ctx context.Context, addr string, req request) (response, error) {
	var resp response
	err := n.callInto(ctx, addr, req, &resp)
	return resp, err
}

// callInto is callCtx decoding the reply into *resp, which must be
// zero apart from an optional candidate buffer: the reply's candidates
// land in resp.Candidates' backing array when it has room (see
// codec.DecodeResponse), so a route that owns its step buffers pays no
// allocation for them.
//
// The request is encoded into a pooled buffer, the pool carries the
// bytes, and the reply is decoded straight out of the pool's receive
// buffer. Any pool failure (dial, write, peer teardown, per-call
// timeout) counts as a dial failure, and a completed exchange clears
// the peer's suspicion.
func (n *Node) callInto(ctx context.Context, addr string, req request, resp *response) error {
	timeout := n.cfg.DialTimeout
	if d, ok := ctx.Deadline(); ok {
		rem := time.Until(d)
		if rem <= 0 {
			err := ctx.Err()
			if err == nil {
				err = context.DeadlineExceeded
			}
			return fmt.Errorf("p2p: dial %s: %w", addr, err)
		}
		if rem < timeout {
			timeout = rem
		}
	}
	req.From = WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
	// Propagate the effective per-call budget so the receiver can drop
	// the request from its admission queue once no caller is left to
	// consume the answer. Relative millis, not a wall-clock instant:
	// peer clocks are not synchronized.
	if ms := timeout.Milliseconds(); ms >= int64(^uint32(0)) {
		req.DeadlineMs = ^uint32(0)
	} else if ms < 1 {
		req.DeadlineMs = 1
	} else {
		req.DeadlineMs = uint32(ms)
	}
	began := time.Now()
	fb := codec.GetBufferSize(req.SizeHint())
	var err error
	fb.B, err = codec.AppendRequest(fb.B, &req)
	n.tel.codecEncodeBin.Observe(time.Since(began).Nanoseconds())
	if err != nil {
		codec.PutBuffer(fb)
		return fmt.Errorf("p2p: encode for %s: %w", addr, err)
	}
	rep, err := n.pool.DoBytes(ctx, addr, fb.B, true, timeout)
	codec.PutBuffer(fb)
	if err != nil {
		if errors.Is(err, pool.ErrPeerSaturated) {
			// Local backpressure, not a peer failure: the peer was never
			// contacted, so neither the dial-failure counter nor the
			// suspicion list may move. Route around it like a busy reply.
			n.softDemote(addr, defaultRetryAfter)
			return &BusyError{Addr: addr, RetryAfter: defaultRetryAfter}
		}
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: call %s: %w", addr, err)
	}
	decStart := time.Now()
	err = codec.DecodeResponse(rep.Payload, resp)
	// One clock read closes both the decode and the whole-call window.
	end := time.Now()
	n.tel.codecDecodeBin.Observe(end.Sub(decStart).Nanoseconds())
	rep.Release()
	if err != nil {
		*resp = response{} // a torn reply must not read as an answer
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: receive from %s: %w", addr, err)
	}
	n.tel.dialLatency.Observe(end.Sub(began).Microseconds())
	n.exchangeDone(addr)
	if !resp.OK {
		return n.wireError(addr, resp)
	}
	return nil
}

// exchangeDone records a completed request/response exchange, whatever
// the reply said: the peer is demonstrably alive (clear its suspicion)
// and the retry budget earns its fractional token.
func (n *Node) exchangeDone(addr string) {
	n.unsuspect(addr)
	n.tel.exchanges.Inc()
	n.budget.earn()
}

// wireError converts a non-OK reply into the caller-facing error. A
// busy (load-shed) reply becomes a typed *BusyError plus a soft
// demotion for the peer's retry-after window — never a dial failure or
// a suspicion strike, because the peer answered; it is overloaded, not
// dead.
func (n *Node) wireError(addr string, resp *response) error {
	if resp.Busy {
		ra := time.Duration(resp.RetryAfterMs) * time.Millisecond
		if ra <= 0 {
			ra = defaultRetryAfter
		}
		n.tel.busyReplies.Inc()
		n.softDemote(addr, ra)
		return &BusyError{Addr: addr, RetryAfter: ra}
	}
	return fmt.Errorf("p2p: %s: %w", addr, peerError(resp.Err))
}

// peerError is a failure the peer itself reported: it answered, so
// unlike a dial or transport failure it says nothing about liveness.
type peerError string

func (e peerError) Error() string { return string(e) }
