package p2p

import (
	"bufio"
	"context"
	"encoding/binary"
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

// handle serves one inbound connection. The only protocol is
// CYCLOID-MUX/2: a connection must open with codec.PreambleMuxV2, which
// the server echoes as the handshake ack before serving frames
// (serveMux). Any other opening — a JSON request line, a retired
// preamble, stray bytes — is closed without writing a byte or
// dispatching anything.
func (n *Node) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(deadline(n.cfg.DialTimeout))
	br := bufio.NewReader(conn)
	// Byte by byte, so a foreign opening is dropped at its first wrong
	// byte instead of waiting for a full preamble's worth of input.
	for i := 0; i < codec.PreambleLen; i++ {
		if c, err := br.ReadByte(); err != nil || c != codec.PreambleMuxV2[i] {
			return
		}
	}
	if _, err := conn.Write([]byte(codec.PreambleMuxV2)); err != nil {
		return
	}
	n.serveMux(conn, br)
}

// serveMux serves one CYCLOID-MUX/2 connection: binary frames of the
// form u32 len | u64 id | u8 status | body, each request dispatched and
// answered under its correlation ID. Responses ride a batching writer,
// so bursts of concurrent replies coalesce into single writes.
// Short read-only ops (ping/state/step take no lock, fetch one short
// store lock) are answered inline on the read loop; the rest dispatch on
// goroutines, drained before the connection closes. A frame's length
// prefix is validated against MaxFrame before any payload allocation.
//
// The stream lives until the peer closes it, a protocol error occurs,
// or the node stops — and on stop, every request already read is
// answered (in-flight dispatches complete, later frames get an explicit
// error frame) before the connection drops.
func (n *Node) serveMux(conn net.Conn, br *bufio.Reader) {
	n.muxMu.Lock()
	n.muxConns[conn] = struct{}{}
	n.muxMu.Unlock()
	defer func() {
		n.muxMu.Lock()
		delete(n.muxConns, conn)
		n.muxMu.Unlock()
	}()

	// A mux stream idles between requests; replace the handshake
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
			writeResp(id, &resp, nextFrameBuffered())
		default:
			inflight.Add(1)
			go func(id uint64, req request) {
				defer inflight.Done()
				resp := n.dispatchAdmitted(req)
				writeResp(id, &resp, false)
			}(id, req)
			// The dispatched handler may take arbitrarily long; don't
			// let responses queued by the inline path wait on it.
			_ = w.Flush()
		}
	}
}

// dispatch routes one request to its handler: an admitted wire request,
// or one exchange answers in-process, whose step reply builds its
// candidates in cands. st is the server-side trace scope when the
// request carried a sampled context (nil otherwise); handlers that fan
// out or fsync thread it through so those costs land in the right span
// phases.
func (n *Node) dispatch(req request, st *opTrace, cands []WireEntry) response {
	switch req.Op {
	case "ping":
		return response{}
	case "state":
		return response{State: n.wireState()}
	case "step":
		return n.handleStep(req, cands)
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
	rs := n.rs.Load()
	return &WireState{
		Self:     WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()},
		Cubical:  wirePtr(rs[cubical]),
		CyclicL:  wirePtr(rs[cyclicL]),
		CyclicS:  wirePtr(rs[cyclicS]),
		InsideL:  wirePtr(rs[insideL]),
		InsideR:  wirePtr(rs[insideR]),
		OutsideL: wirePtr(rs[outsideL]),
		OutsideR: wirePtr(rs[outsideR]),
	}
}

// handleStep validates a step request's target and answers with localStep.
func (n *Node) handleStep(req request, dst []WireEntry) response {
	if req.Target == nil {
		return response{Err: "step without target"}
	}
	t := toEntry(*req.Target).ID
	if !n.space.Contains(t) {
		return response{Err: "target outside ID space"}
	}
	return n.localStep(t, req.GreedyOnly, dst)
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
func (n *Node) localStep(t ids.CycloidID, greedyOnly bool, dst []WireEntry) response {
	ss := stepScratchPool.Get().(*stepScratch)
	rs := n.rs.Load()
	st := rs.nodeState(n.id, &ss.ids)
	step := cycloid.DecideStepScratch(n.space, &st, t, greedyOnly, &ss.sc)
	out := response{Phase: step.Phase.String(), Done: len(step.Candidates) == 0}
	if len(step.Candidates) > 0 {
		// Resolved from the same state the decision was made on, so the
		// addresses are consistent with it.
		out.Candidates = dst[:0]
		if cap(dst) < len(step.Candidates) {
			out.Candidates = make([]WireEntry, 0, len(step.Candidates))
		}
		for _, id := range step.Candidates {
			if addr, ok := rs.addrOf(id); ok {
				out.Candidates = append(out.Candidates, WireEntry{K: id.K, A: id.A, Addr: addr})
			}
		}
	}
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
	if red := n.redirect(n.keyPoint(req.Key)); red != nil {
		return *red
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
	return response{Items: items}
}
