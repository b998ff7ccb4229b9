package p2p

import (
	"cmp"
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

// wireSlots lists a peer's seven entries in slot order.
func wireSlots(st *WireState) []*WireEntry {
	return []*WireEntry{st.InsideL, st.InsideR, st.OutsideL, st.OutsideR, st.Cubical, st.CyclicL, st.CyclicS}
}

// leafEntries lists the leaf entries a peer's state holds.
func leafEntries(st *WireState) (out []entry) {
	for _, w := range wireSlots(st)[:cubical] {
		if w != nil {
			out = append(out, toEntry(*w))
		}
	}
	return out
}

func entryPtr(w *WireEntry) *entry {
	if w == nil {
		return nil
	}
	e := toEntry(*w)
	return &e
}

// addrOnly names a peer known only by its address: a bootstrap, a hint,
// a maintenance contact. Its ID lies outside every ID space (cyclic
// index MaxDim), so exchange never takes it for this node.
func addrOnly(addr string) entry { return entry{ID: ids.CycloidID{K: ids.MaxDim}, Addr: addr} }

// exchange performs one request/response exchange with peer to,
// decoding the reply into *resp, which must be zero apart from an
// optional candidate buffer and an optional value buffer: a step
// reply's candidates land in resp.Candidates' backing array and a fetch
// reply's value in resp.Value's when it has room (see
// codec.DecodeResponse), so a route that owns its step buffers pays no
// allocation for them, and a read pays one copy into its caller's
// buffer. It is the node's only way to reach a peer.
//
// A step, fetch or state addressed to this node while it runs is
// answered in-process by the handler the server runs. Such an answer is
// not a served request: it counts no cycloid_requests_total, takes no
// admission slot and records no span, so the counters and spans show
// exactly the traffic that crossed the wire. Its value is copied into
// the value buffer the way a decode would, never store memory. Every
// other exchange crosses the wire, recorded as one call span under ot;
// hop, when not nil, annotates the span of a successful step a route
// made.
func (n *Node) exchange(ctx context.Context, to entry, req *request, resp *response, ot *opTrace, hop *hopNote) error {
	if to.ID == n.id && (req.Op == "step" || req.Op == "fetch" || req.Op == "state") && !n.isStopped() {
		dst := resp.Value
		*resp = n.dispatch(*req, nil, resp.Candidates)
		resp.Value = codec.CopyValue(dst, resp.Value)
		return nil
	}
	sid, t0 := ot.startCall(req)
	err := n.roundTrip(ctx, to.Addr, req, resp)
	var notes []string
	if sid != 0 && err == nil && hop != nil {
		notes = hop.annotations(req.GreedyOnly)
	}
	ot.endCall(sid, t0, req.Op, to.Addr, err, notes...)
	return err
}

// call is exchange with a peer known only by its address, untraced and
// bounded only by DialTimeout: the membership and repair traffic.
func (n *Node) call(addr string, req request) (response, error) {
	var resp response
	err := n.exchange(context.Background(), addrOnly(addr), &req, &resp, nil, nil)
	return resp, err
}

// stateOf fetches the routing state of peer at, untraced.
func (n *Node) stateOf(ctx context.Context, at entry) (*WireState, error) {
	var resp response
	err := n.exchange(ctx, at, &request{Op: "state"}, &resp, nil, nil)
	if err == nil && resp.State == nil {
		err = fmt.Errorf("p2p: %s returned no state", at.Addr)
	}
	return resp.State, err
}

// roundTrip is exchange's wire half. The per-contact budget is capped
// by the caller's context deadline: each dial costs at most
// min(DialTimeout, time left on ctx), so one blackholed peer cannot
// stall a whole operation for the full dial-timeout ladder.
//
// The request is encoded into a pooled buffer, the pool carries the
// bytes, and the reply is decoded straight out of the pool's receive
// buffer. Any pool failure (dial, write, peer teardown, per-call
// timeout) counts as a dial failure — the live-network analogue of the
// paper's timeout — and a completed exchange clears the peer's
// suspicion.
func (n *Node) roundTrip(ctx context.Context, addr string, req *request, resp *response) error {
	timeout := n.cfg.DialTimeout
	if d, ok := ctx.Deadline(); ok {
		rem := time.Until(d)
		if rem <= 0 {
			return fmt.Errorf("p2p: dial %s: %w", addr, cmp.Or(ctx.Err(), context.DeadlineExceeded))
		}
		timeout = min(timeout, rem)
	}
	req.From = WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
	// Propagate the effective per-call budget so the receiver can drop
	// the request from its admission queue once no caller is left to
	// consume the answer. Relative millis, not a wall-clock instant:
	// peer clocks are not synchronized.
	req.DeadlineMs = uint32(min(max(timeout.Milliseconds(), 1), int64(^uint32(0))))
	began := time.Now()
	fb := codec.GetBufferSize(req.SizeHint())
	var err error
	fb.B, err = codec.AppendRequest(fb.B, req)
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
			// contacted, so neither the dial-failure counter nor its
			// suspicion strikes may move. Route around it like a busy reply.
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
	// A completed exchange, whatever the reply said: the peer is
	// demonstrably alive, so its strikes clear (taking no lock when it
	// has none), and the retry budget earns its fractional token.
	if n.peer(addr).strikes > 0 {
		n.editPeer(addr, func(h *peerHealth) { h.strikes = 0 })
	}
	n.tel.exchanges.Inc()
	n.budget.earn()
	switch {
	case resp.OK:
		return nil
	case resp.Busy:
		// A busy (load-shed) reply becomes a typed *BusyError plus a soft
		// demotion for the peer's retry-after window — never a dial
		// failure or a suspicion strike, because the peer answered; it is
		// overloaded, not dead.
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
