package p2p

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/pool"
)

// Wire protocol. The envelope types live in p2p/codec (aliased below)
// and travel in one of two codecs:
//
//   - v1: newline-delimited JSON, one request per connection (or JSON
//     envelopes over a CYCLOID-MUX/1 pooled stream) — the seed
//     protocol, still spoken for interoperability;
//   - v2: length-prefixed fixed-width binary (p2p/codec/binary.go),
//     opened with CYCLOID-BIN/2 for one-shot requests or CYCLOID-MUX/2
//     for pooled streams.
//
// Servers auto-detect the codec per connection from the opening bytes,
// so nodes configured differently interoperate on one overlay. Clients
// follow Config.WireCodec: "auto" (default) speaks binary and falls
// back — once, remembered per peer — when a peer turns out to be a
// v1-only build, identified by it closing the probed connection without
// writing a byte. Every message carries the sender's overlay identity
// so receivers can learn addresses opportunistically.

// Type aliases onto the shared codec envelope types: the overlay code
// below constructs and consumes the same structs whichever codec a
// connection speaks.
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

// errPeerSpeaksV1 marks a one-shot binary probe answered by a clean
// zero-byte close: the peer is a v1-only build, not a dead node.
var errPeerSpeaksV1 = errors.New("p2p: peer speaks only the v1 wire protocol")

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
// zero apart from an optional candidate buffer: a binary reply's
// candidates land in resp.Candidates' backing array when it has room
// (see codec.DecodeResponse), so a route that owns its step buffers
// pays no allocation for them.
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
	if n.pool != nil {
		return n.callPooled(ctx, addr, req, timeout, resp)
	}
	mode := n.wireCodec
	if mode == codec.Auto {
		if learned, ok := n.peerCodec.Load(addr); ok {
			mode = learned.(codec.Codec)
		} else {
			mode = codec.Binary
		}
	}
	if mode == codec.Binary {
		err := n.callBinary(addr, req, timeout, resp)
		if !errors.Is(err, errPeerSpeaksV1) {
			return err
		}
		if n.wireCodec == codec.Binary {
			// Binary forced: a v1-only peer is unusable.
			n.tel.dialFailures.Inc()
			return fmt.Errorf("p2p: call %s: %w", addr, err)
		}
		// The binary probe was answered by a clean close, so the peer
		// never dispatched anything: retrying the same request in v1 is
		// safe, and the peer's codec is remembered so future calls skip
		// the probe.
		n.peerCodec.Store(addr, codec.JSON)
		n.tel.codecFallbacks.Inc()
	}
	return n.callJSON(addr, req, timeout, resp)
}

// callJSON is the v1 dial-per-request exchange: one newline-delimited
// JSON request, one JSON response.
func (n *Node) callJSON(addr string, req request, timeout time.Duration, resp *response) error {
	began := time.Now()
	conn, err := n.cfg.Transport.Dial(addr, timeout)
	if err != nil {
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline(timeout)); err != nil {
		n.tel.dialFailures.Inc()
		return err
	}
	encStart := time.Now()
	payload, err := json.Marshal(&req)
	n.tel.codecEncodeJSON.Observe(time.Since(encStart).Nanoseconds())
	if err != nil {
		return fmt.Errorf("p2p: encode for %s: %w", addr, err)
	}
	payload = append(payload, '\n')
	if _, err := conn.Write(payload); err != nil {
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: send to %s: %w", addr, err)
	}
	// Decoded into a local so resp does not escape to the JSON decoder.
	var jr response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&jr); err != nil {
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: receive from %s: %w", addr, err)
	}
	*resp = jr
	n.tel.dialLatency.Observe(time.Since(began).Microseconds())
	// A completed exchange proves the peer is alive, whatever it said.
	n.exchangeDone(addr)
	if !resp.OK {
		return n.wireError(addr, resp)
	}
	return nil
}

// callBinary is the v2 dial-per-request exchange: the CYCLOID-BIN/2
// preamble followed by one length-prefixed binary frame each way, with
// pooled encode/decode buffers. A zero-byte close instead of a response
// returns errPeerSpeaksV1 (see callCtx).
func (n *Node) callBinary(addr string, req request, timeout time.Duration, resp *response) error {
	began := time.Now()
	conn, err := n.cfg.Transport.Dial(addr, timeout)
	if err != nil {
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline(timeout)); err != nil {
		n.tel.dialFailures.Inc()
		return err
	}
	fb := codec.GetBufferSize(len(codec.PreambleBinV2) + 4 + req.SizeHint())
	fb.B = append(fb.B, codec.PreambleBinV2...)
	fb.B = append(fb.B, 0, 0, 0, 0) // frame length, backfilled below
	start := len(fb.B)
	encStart := time.Now()
	out, err := codec.AppendRequest(fb.B, &req)
	n.tel.codecEncodeBin.Observe(time.Since(encStart).Nanoseconds())
	if err != nil {
		codec.PutBuffer(fb)
		return fmt.Errorf("p2p: encode for %s: %w", addr, err)
	}
	fb.B = out
	if l := len(out) - start; l > n.cfg.MaxFrame {
		codec.PutBuffer(fb)
		return fmt.Errorf("p2p: request to %s: %w", addr, pool.ErrFrameTooLarge)
	} else {
		binary.LittleEndian.PutUint32(out[start-4:], uint32(l))
	}
	_, werr := conn.Write(fb.B)
	codec.PutBuffer(fb)
	if werr != nil {
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: send to %s: %w", addr, werr)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			// Clean close before any response byte: a v1-only server
			// failed to parse the preamble as JSON and hung up.
			return errPeerSpeaksV1
		}
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: receive from %s: %w", addr, err)
	}
	rl := int(binary.LittleEndian.Uint32(hdr[:]))
	if rl <= 0 || rl > n.cfg.MaxFrame {
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: receive from %s: %w", addr, pool.ErrFrameTooLarge)
	}
	rb := codec.GetBufferSize(rl)
	rb.B = rb.B[:rl]
	if _, err := io.ReadFull(conn, rb.B); err != nil {
		codec.PutBuffer(rb)
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: receive from %s: %w", addr, err)
	}
	decStart := time.Now()
	derr := codec.DecodeResponse(rb.B, resp)
	n.tel.codecDecodeBin.Observe(time.Since(decStart).Nanoseconds())
	codec.PutBuffer(rb)
	if derr != nil {
		*resp = response{} // a torn reply must not read as an answer
		n.tel.dialFailures.Inc()
		return fmt.Errorf("p2p: receive from %s: %w", addr, derr)
	}
	n.tel.dialLatency.Observe(time.Since(began).Microseconds())
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

// callPooled performs the exchange over the connection pool, encoding
// the request in whichever codec the pooled connection negotiated.
// Telemetry and failure semantics mirror the dial-per-request path
// exactly: any pool failure (dial, write, peer teardown, per-call
// timeout) counts as a dial failure, and a completed exchange clears
// the peer's suspicion.
func (n *Node) callPooled(ctx context.Context, addr string, req request, timeout time.Duration, resp *response) error {
	began := time.Now()
	// Encode before entering the pool, in the codec the pool expects to
	// speak to this peer: the exchange then carries plain bytes, with no
	// per-call encode closure. The expectation can be invalidated by a
	// concurrent call learning the peer is v1-only; the mismatch error
	// is returned before anything is written, so re-encoding and
	// retrying once is safe.
	bin := n.pool.CodecFor(addr) == codec.Binary
	fb := codec.GetBufferSize(req.SizeHint())
	var rep pool.Reply
	for attempt := 0; ; attempt++ {
		var err error
		fb.B = fb.B[:0]
		encStart := time.Now()
		if bin {
			fb.B, err = codec.AppendRequest(fb.B, &req)
			n.tel.codecEncodeBin.Observe(time.Since(encStart).Nanoseconds())
		} else {
			// Marshal a copy so the binary branch above keeps the request
			// itself off the heap.
			rcopy := req
			var raw []byte
			if raw, err = json.Marshal(&rcopy); err == nil {
				fb.B = append(fb.B, raw...)
				n.tel.codecEncodeJSON.Observe(time.Since(encStart).Nanoseconds())
			}
		}
		if err != nil {
			codec.PutBuffer(fb)
			return fmt.Errorf("p2p: encode for %s: %w", addr, err)
		}
		rep, err = n.pool.DoBytes(ctx, addr, fb.B, bin, timeout)
		if err == nil {
			break
		}
		var mismatch *pool.CodecMismatchError
		if attempt == 0 && errors.As(err, &mismatch) {
			bin = mismatch.Binary
			continue
		}
		codec.PutBuffer(fb)
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
	codec.PutBuffer(fb)
	var err error
	decStart := time.Now()
	if rep.Binary {
		err = codec.DecodeResponse(rep.Payload, resp)
	} else {
		// Decoded into a local so resp does not escape to encoding/json.
		var jr response
		err = json.Unmarshal(rep.Payload, &jr)
		*resp = jr
	}
	// One clock read closes both the decode and the whole-call window.
	end := time.Now()
	if rep.Binary {
		n.tel.codecDecodeBin.Observe(end.Sub(decStart).Nanoseconds())
	} else {
		n.tel.codecDecodeJSON.Observe(end.Sub(decStart).Nanoseconds())
	}
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
