package p2p

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"cycloid/internal/cycloid"
	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/pool"
)

func deadline(d time.Duration) time.Time { return time.Now().Add(d) }

// serve accepts connections until the node stops. Transient Accept
// errors (EMFILE, a faulty listener) back off exponentially instead of
// hot-looping — a bare continue would spin a core while the condition
// lasts.
func (n *Node) serve() {
	defer n.wg.Done()
	var backoff time.Duration
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.isStopped() {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			n.tel.acceptBackoff.Inc()
			n.log.Warn("accept failed, backing off", "err", err, "backoff", backoff)
			t := time.NewTimer(backoff)
			select {
			case <-n.stopped:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handle(conn)
		}()
	}
}

// handle serves one inbound connection, auto-detecting its protocol
// from the opening bytes so differently-configured nodes interoperate:
//
//	CYCLOID-MUX/1\n  v1 multiplexed stream, JSON envelopes (serveMux)
//	CYCLOID-MUX/2\n  v2 multiplexed stream, binary frames (serveMuxBin)
//	CYCLOID-BIN/2\n  v2 one-shot: one binary request, one response
//	anything else    v1 one-shot: one JSON request, one response
//
// Either way a single inbound frame is capped at MaxFrame bytes — an
// oversized request gets a wire error instead of an unbounded buffer,
// and on the binary paths the length prefix is checked before any
// payload allocation.
func (n *Node) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(deadline(n.cfg.DialTimeout))
	br := bufio.NewReader(conn)
	if pre, err := br.Peek(codec.PreambleLen); err == nil {
		switch string(pre) {
		case pool.Preamble:
			_, _ = br.Discard(codec.PreambleLen)
			n.serveMux(conn, br)
			return
		case codec.PreambleMuxV2:
			_, _ = br.Discard(codec.PreambleLen)
			// Echo the preamble as the negotiation ack — a v1-only
			// server would have closed without writing a byte.
			if _, err := conn.Write([]byte(codec.PreambleMuxV2)); err != nil {
				return
			}
			n.serveMuxBin(conn, br)
			return
		case codec.PreambleBinV2:
			_, _ = br.Discard(codec.PreambleLen)
			n.handleBinOneShot(conn, br)
			return
		}
	}
	var req request
	if err := json.NewDecoder(&cappedReader{r: br, rem: n.cfg.MaxFrame}).Decode(&req); err != nil {
		if errors.Is(err, pool.ErrFrameTooLarge) {
			resp := response{Err: "request exceeds frame limit"}
			_ = json.NewEncoder(conn).Encode(resp)
		}
		return
	}
	resp := n.dispatchAdmitted(req)
	resp.OK = resp.Err == ""
	_ = json.NewEncoder(conn).Encode(resp)
}

// cappedReader fails with pool.ErrFrameTooLarge once more than rem
// bytes have been read through it, bounding what a single request may
// make the decoder buffer.
type cappedReader struct {
	r   io.Reader
	rem int
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.rem <= 0 {
		return 0, pool.ErrFrameTooLarge
	}
	if len(p) > c.rem {
		p = p[:c.rem]
	}
	nr, err := c.r.Read(p)
	c.rem -= nr
	return nr, err
}

// handleBinOneShot serves one CYCLOID-BIN/2 exchange: a u32
// length-prefixed binary request, one binary response, close. The
// length prefix is validated against MaxFrame before the payload buffer
// is sized, so a hostile prefix cannot force an allocation; an
// oversized claim is answered with the same wire error as the JSON
// path. Malformed payloads close silently, mirroring the JSON one-shot.
func (n *Node) handleBinOneShot(conn net.Conn, br *bufio.Reader) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return
	}
	l := int(binary.LittleEndian.Uint32(hdr[:]))
	if l <= 0 || l > n.cfg.MaxFrame {
		n.writeBinOneShot(conn, &response{Err: "request exceeds frame limit"})
		return
	}
	fb := codec.GetBufferSize(l)
	fb.B = fb.B[:l]
	if _, err := io.ReadFull(br, fb.B); err != nil {
		codec.PutBuffer(fb)
		return
	}
	var req request
	decStart := time.Now()
	err := codec.DecodeRequest(fb.B, &req)
	n.tel.codecDecodeBin.Observe(time.Since(decStart).Nanoseconds())
	codec.PutBuffer(fb)
	if err != nil {
		return
	}
	resp := n.dispatchAdmitted(req)
	resp.OK = resp.Err == ""
	n.writeBinOneShot(conn, &resp)
}

// writeBinOneShot sends one length-prefixed binary response from a
// pooled buffer.
func (n *Node) writeBinOneShot(conn net.Conn, resp *response) {
	fb := codec.GetBufferSize(4 + resp.SizeHint())
	fb.B = append(fb.B, 0, 0, 0, 0) // frame length, backfilled below
	encStart := time.Now()
	out, err := codec.AppendResponse(fb.B, resp)
	n.tel.codecEncodeBin.Observe(time.Since(encStart).Nanoseconds())
	if err != nil {
		codec.PutBuffer(fb)
		return
	}
	binary.LittleEndian.PutUint32(out[:4], uint32(len(out)-4))
	fb.B = out
	_, _ = conn.Write(out)
	codec.PutBuffer(fb)
}

// serveMuxBin serves one CYCLOID-MUX/2 connection: binary frames of
// the form u32 len | u64 id | u8 status | body, each request
// dispatched and answered under its correlation ID. Responses ride a
// batching writer, so bursts of concurrent replies coalesce into
// single writes. Read-only ops that complete under one short lock
// (ping/state/step/fetch) are answered inline on the read loop; the
// rest dispatch on goroutines, drained before the connection closes.
// As on the one-shot path, a frame's length prefix is validated
// against MaxFrame before any payload allocation.
func (n *Node) serveMuxBin(conn net.Conn, br *bufio.Reader) {
	n.muxMu.Lock()
	n.muxConns[conn] = struct{}{}
	n.muxMu.Unlock()
	defer func() {
		n.muxMu.Lock()
		delete(n.muxConns, conn)
		n.muxMu.Unlock()
	}()

	// Same idle/stop handshake as serveMux: drop the per-request
	// deadline, then re-check stopped in case Close swept the mux set
	// concurrently with registration above.
	_ = conn.SetDeadline(time.Time{})
	if n.isStopped() {
		return
	}

	w := pool.NewWriter(conn, n.cfg.DialTimeout, func(error) {
		// A failed write poisons the stream; closing the connection
		// unblocks the read loop, which ends the handler.
		_ = conn.Close()
	})
	writeErr := func(id uint64, msg string) {
		_ = w.Frame(13+len(msg), func(buf []byte) ([]byte, error) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(9+len(msg)))
			buf = binary.LittleEndian.AppendUint64(buf, id)
			buf = append(buf, 1)
			return append(buf, msg...), nil
		})
	}
	// writeResp appends one response frame. With defer set the frame is
	// only queued: the caller knows another complete request is already
	// buffered, so its response will ride the same Write — under
	// pipelining, a burst of requests costs one response syscall.
	writeResp := func(id uint64, resp *response, deferFlush bool) {
		fill := func(buf []byte) ([]byte, error) {
			start := len(buf)
			buf = append(buf, 0, 0, 0, 0) // frame length, backfilled below
			buf = binary.LittleEndian.AppendUint64(buf, id)
			buf = append(buf, 0)
			encStart := time.Now()
			out, err := codec.AppendResponse(buf, resp)
			n.tel.codecEncodeBin.Observe(time.Since(encStart).Nanoseconds())
			if err != nil {
				return buf[:start], err
			}
			l := len(out) - start - 4
			if l > n.cfg.MaxFrame {
				return out[:start], pool.ErrFrameTooLarge
			}
			binary.LittleEndian.PutUint32(out[start:], uint32(l))
			return out, nil
		}
		// The reply size is known (a fetch carries its value), so its
		// size class is reserved before encoding.
		size := 13 + resp.SizeHint()
		var err error
		if deferFlush {
			err = w.Queue(size, fill)
		} else {
			err = w.Frame(size, fill)
		}
		if err != nil {
			// The frame was rolled back, so the stream is still framed;
			// answer the call with an error envelope instead.
			writeErr(id, "response exceeds frame limit")
		}
	}
	// nextFrameBuffered reports whether br already holds one complete
	// request frame — the signal that the current response can be queued
	// instead of flushed, because this loop will append another response
	// (or flush) before it next blocks on the socket.
	nextFrameBuffered := func() bool {
		if br.Buffered() < 4 {
			return false
		}
		peek, err := br.Peek(4)
		if err != nil {
			return false
		}
		l := int(binary.LittleEndian.Uint32(peek))
		return l >= 9 && l <= n.cfg.MaxFrame && br.Buffered() >= 4+l
	}

	var inflight sync.WaitGroup
	defer inflight.Wait() // drain dispatched handlers before closing
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		l := int(binary.LittleEndian.Uint32(hdr[:]))
		if l < 9 || l > n.cfg.MaxFrame {
			// ID 0 = connection-level error: framing is lost, so the
			// peer must tear the stream down. The check precedes the
			// payload allocation below.
			writeErr(0, "frame exceeds size limit")
			return
		}
		fb := codec.GetBufferSize(l)
		fb.B = fb.B[:l]
		if _, err := io.ReadFull(br, fb.B); err != nil {
			codec.PutBuffer(fb)
			return
		}
		id := binary.LittleEndian.Uint64(fb.B)
		status := fb.B[8]
		if id == 0 || status != 0 {
			codec.PutBuffer(fb)
			writeErr(0, "malformed envelope")
			return
		}
		if n.isStopped() {
			codec.PutBuffer(fb)
			writeErr(id, ErrStopped.Error())
			continue
		}
		var req request
		decStart := time.Now()
		err := codec.DecodeRequest(fb.B[9:], &req)
		n.tel.codecDecodeBin.Observe(time.Since(decStart).Nanoseconds())
		codec.PutBuffer(fb)
		if err != nil {
			writeErr(id, "malformed request")
			continue
		}
		switch req.Op {
		case "ping", "state", "step", "fetch":
			// Short read-only ops answer inline, skipping the
			// per-request goroutine on the lookup hot path. Admission
			// still applies: queueing on the read loop stalls pipelined
			// frames behind it, which is exactly the backpressure an
			// overloaded node wants to exert.
			resp := n.dispatchAdmitted(req)
			resp.OK = resp.Err == ""
			writeResp(id, &resp, nextFrameBuffered())
		default:
			inflight.Add(1)
			go func(id uint64, req request) {
				defer inflight.Done()
				resp := n.dispatchAdmitted(req)
				resp.OK = resp.Err == ""
				writeResp(id, &resp, false)
			}(id, req)
			// The dispatched handler may take arbitrarily long; don't
			// let responses queued by the inline path wait on it.
			_ = w.Flush()
		}
	}
}

// serveMux serves one multiplexed connection: newline-delimited pool
// envelopes, each request dispatched concurrently and answered under
// its correlation ID. The stream lives until the peer closes it, a
// protocol error occurs, or the node stops — and on stop, every request
// already read is answered (in-flight dispatches complete, later frames
// get an explicit error envelope) before the connection drops.
func (n *Node) serveMux(conn net.Conn, br *bufio.Reader) {
	n.muxMu.Lock()
	n.muxConns[conn] = struct{}{}
	n.muxMu.Unlock()
	defer func() {
		n.muxMu.Lock()
		delete(n.muxConns, conn)
		n.muxMu.Unlock()
	}()

	// A mux stream idles between requests; replace the per-request
	// deadline with none, then re-check stopped — Close may have swept
	// the mux set concurrently with registration above, and its
	// read-deadline nudge must not be erased silently.
	_ = conn.SetDeadline(time.Time{})
	if n.isStopped() {
		return
	}

	w := pool.NewWriter(conn, n.cfg.DialTimeout, func(error) {
		// A failed write poisons the stream; closing the connection
		// unblocks the read loop, which ends the handler.
		_ = conn.Close()
	})
	writeEnv := func(env pool.Envelope) {
		frame, err := json.Marshal(env)
		if err != nil {
			return
		}
		_ = w.Frame(len(frame)+1, func(buf []byte) ([]byte, error) {
			buf = append(buf, frame...)
			return append(buf, '\n'), nil
		})
	}

	var inflight sync.WaitGroup
	defer inflight.Wait() // drain dispatched handlers before closing
	for {
		line, err := pool.ReadFrame(br, n.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, pool.ErrFrameTooLarge) {
				// ID 0 = connection-level error: framing is lost, so the
				// peer must tear the stream down.
				writeEnv(pool.Envelope{Err: "frame exceeds size limit"})
			}
			return
		}
		var env pool.Envelope
		if err := json.Unmarshal(line, &env); err != nil || env.ID == 0 {
			writeEnv(pool.Envelope{Err: "malformed envelope"})
			return
		}
		if n.isStopped() {
			writeEnv(pool.Envelope{ID: env.ID, Err: ErrStopped.Error()})
			continue
		}
		var req request
		if err := json.Unmarshal(env.P, &req); err != nil {
			writeEnv(pool.Envelope{ID: env.ID, Err: "malformed request"})
			continue
		}
		inflight.Add(1)
		go func(id uint64, req request) {
			defer inflight.Done()
			resp := n.dispatchAdmitted(req)
			resp.OK = resp.Err == ""
			p, err := json.Marshal(resp)
			if err != nil {
				writeEnv(pool.Envelope{ID: id, Err: "encode response: " + err.Error()})
				return
			}
			writeEnv(pool.Envelope{ID: id, P: p})
		}(env.ID, req)
	}
}

// dispatch routes one admitted request to its handler. st is the
// server-side trace scope when the request carried a sampled context
// (nil otherwise); handlers that fan out or fsync thread it through so
// those costs land in the right span phases.
func (n *Node) dispatch(req request, st *opTrace) response {
	n.tel.request(req.Op)
	switch req.Op {
	case "ping":
		return response{}
	case "state":
		return response{State: n.wireState()}
	case "step":
		return n.handleStep(req)
	case "store":
		return n.handleStore(req, st)
	case "replicate":
		return n.handleReplicate(req, st)
	case "fetch":
		n.mu.RLock()
		it, ok := n.store.Get(req.Key)
		n.mu.RUnlock()
		return response{Value: it.Val, Found: ok, Ver: it.Ver}
	case "handoff":
		for k, w := range req.Items {
			n.putLocal(k, item{Val: append([]byte(nil), w.V...), Ver: w.Ver, Src: w.Src})
		}
		// A departing node treats this response as proof the batch is
		// safe; one group-committed sync covers the whole batch.
		if err := n.syncStoreTimed(st); err != nil {
			return response{Err: err.Error()}
		}
		return response{}
	case "reclaim":
		return n.handleReclaim(req)
	case "update":
		n.handleUpdate(req)
		return response{}
	default:
		return response{Err: "unknown op " + req.Op}
	}
}

// wireState snapshots the node's routing state for the wire.
func (n *Node) wireState() *WireState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return &WireState{
		Self:     WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()},
		Cubical:  wirePtr(n.rs.cubical),
		CyclicL:  wirePtr(n.rs.cyclicL),
		CyclicS:  wirePtr(n.rs.cyclicS),
		InsideL:  wirePtr(n.rs.insideL),
		InsideR:  wirePtr(n.rs.insideR),
		OutsideL: wirePtr(n.rs.outsideL),
		OutsideR: wirePtr(n.rs.outsideR),
	}
}

// handleStep runs the shared routing decision on the node's local state
// and resolves each candidate ID to the address this node knows for it.
func (n *Node) handleStep(req request) response {
	if req.Target == nil {
		return response{Err: "step without target"}
	}
	t := toEntry(*req.Target).ID
	if !n.space.Contains(t) {
		return response{Err: "target outside ID space"}
	}
	s := n.localStep(t, req.GreedyOnly, nil)
	return response{Phase: s.Phase, Candidates: s.Candidates, Done: s.Done}
}

// stepScratch bundles the reusable buffers of one local routing
// decision — the snapshot backing and the decision working set — so the
// per-request cost of a step is at most the candidate slice.
type stepScratch struct {
	ids [7]ids.CycloidID
	sc  cycloid.Scratch
}

var stepScratchPool = sync.Pool{New: func() any { return new(stepScratch) }}

// localStep runs the shared routing decision on this node's own state
// and resolves each candidate ID to the address this node knows for it.
// The candidates are built in dst's backing array, so a route that owns
// its step buffers pays no allocation; a nil or short dst allocates a
// fresh list.
func (n *Node) localStep(t ids.CycloidID, greedyOnly bool, dst []WireEntry) stepResult {
	ss := stepScratchPool.Get().(*stepScratch)
	n.mu.RLock()
	st := n.snapshotLockedInto(&ss.ids)
	step := cycloid.DecideStepScratch(n.space, &st, t, greedyOnly, &ss.sc)
	out := stepResult{Phase: step.Phase.String(), Done: len(step.Candidates) == 0}
	if len(step.Candidates) > 0 {
		// Resolved under the same lock as the snapshot, so the addresses
		// are consistent with the state the decision was made on.
		out.Candidates = dst[:0]
		if cap(dst) < len(step.Candidates) {
			out.Candidates = make([]WireEntry, 0, len(step.Candidates))
		}
		for _, id := range step.Candidates {
			if addr, ok := n.addrOfLocked(id); ok {
				out.Candidates = append(out.Candidates, WireEntry{K: id.K, A: id.A, Addr: addr})
			}
		}
	}
	n.mu.RUnlock()
	stepScratchPool.Put(ss)
	return out
}

// handleStore accepts a routed write. A receiver outside the key's
// replica scope rejects it with a redirect entry — a route resolved just
// before a join can otherwise strand the value on a node that is no
// longer responsible. In scope, the receiver takes owner-side authority:
// it assigns the next logical version and fans the copy out, so even a
// mid-transition write converges via last-writer-wins at the true owner.
func (n *Node) handleStore(req request, st *opTrace) response {
	kp := n.keyPoint(req.Key)
	if !n.mayHold(kp) {
		resp := response{Err: "not owner or replica for key"}
		if s := n.localStep(kp, false, nil); len(s.Candidates) > 0 {
			resp.Redirect = &s.Candidates[0]
		}
		return resp
	}
	if _, err := n.putOwner(context.Background(), req.Key, req.Value, st); err != nil {
		return response{Err: err.Error()}
	}
	return response{}
}

// handleReclaim hands over the stored items the requesting (new) node is
// now responsible for — the key migration of the join protocol. With
// replication enabled the previous holder keeps its copy: as the
// newcomer's leaf neighbor it usually stays inside the key's replica
// scope, and the anti-entropy pass garbage-collects it if not.
func (n *Node) handleReclaim(req request) response {
	newcomer := toEntry(req.From).ID
	n.mu.Lock()
	defer n.mu.Unlock()
	items := make(map[string]WireItem)
	var drop []string
	n.store.Range(func(k string, v item) bool {
		if n.space.Closer(n.keyPoint(k), newcomer, n.id) {
			items[k] = WireItem{V: v.Val, Ver: v.Ver, Src: v.Src}
			if n.cfg.Replicas <= 1 {
				drop = append(drop, k)
			}
		}
		return true
	})
	for _, k := range drop {
		n.store.Delete(k)
	}
	n.updateStoreGaugeLocked()
	if len(items) == 0 {
		return response{}
	}
	out := response{}
	out.Value, _ = json.Marshal(items) // piggyback the batch on Value
	return out
}
