package p2p

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"cycloid/internal/cycloid"
	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/pool"
)

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
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
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
			n.srv.ServeConn(conn)
		}()
	}
}

// serveFrame is the node's pool.Handler. A step runs as this node's
// part of a forwarded route (serveStep). Short read-only ops (ping/
// state take no lock, fetch one short store lock) are answered inline
// on the connection's read loop, skipping the per-request goroutine.
// Admission still applies: queueing on the read loop stalls pipelined
// frames behind it, which is exactly the backpressure an overloaded
// node wants to exert. The rest dispatch on goroutines, which the
// connection drains before it closes.
func (n *Node) serveFrame(c *pool.ServerConn, id uint64, body []byte) {
	if codec.StepRequest(body) {
		n.serveStep(c, id, body)
		return
	}
	var req request
	decStart := time.Now()
	err := codec.DecodeRequest(body, &req)
	n.tel.codecDecodeBin.Observe(time.Since(decStart).Nanoseconds())
	switch {
	case err != nil:
		c.Error(id, "malformed request")
	case req.Op == "ping" || req.Op == "state" || req.Op == "fetch":
		resp := n.dispatchAdmitted(req)
		n.reply(c, id, &resp)
	default:
		c.Add()
		go n.serveOffLoop(c, id, req)
	}
}

// serveStep takes one step of a forwarded route. Without admission
// control it runs on the read loop itself: deciding and forwarding never
// block, so a hop costs the connection no goroutine. With admission
// control the step may have to wait for a slot, and a wait on the read
// loop would stall every route that neighbour forwards here, so it runs
// on a goroutine of its own, like a store.
func (n *Node) serveStep(c *pool.ServerConn, id uint64, body []byte) {
	op := n.newRouteOp(WireEntry{})
	op.in.Target, op.in.Route = &op.target, &op.rs
	decStart := time.Now()
	err := codec.DecodeRequest(body, &op.in)
	n.tel.codecDecodeBin.Observe(time.Since(decStart).Nanoseconds())
	if err != nil {
		c.Error(id, "malformed request")
		op.recycle()
		return
	}
	op.sc, op.id, op.greedy, op.from = c, id, op.in.GreedyOnly, op.in.From.Addr
	if n.adm == nil {
		n.runStep(op)
		return
	}
	c.Add()
	op.added, op.arrived = true, time.Now()
	go n.runStep(op)
}

// runStep admits a step and runs this node's part of its route. The
// slot covers the decision and the send, not the wait for the answer,
// which comes back on another connection's read loop (routeOp.Complete).
func (n *Node) runStep(op *routeOp) {
	st, release, busy := n.admit(&op.in)
	op.mu.Lock()
	if busy != nil {
		op.settle = true
		op.answer(busy)
		op.mu.Unlock()
		op.recycle()
		return
	}
	n.tel.request("step")
	op.ot = st
	switch {
	case op.in.Target == nil || op.in.Route == nil:
		op.end(nil, errors.New("step without target"))
	case !n.space.Contains(toEntry(op.target).ID):
		op.end(nil, errors.New("target outside ID space"))
	default:
		op.begin()
	}
	if release != nil {
		release()
	}
	op.unlock()
}

// serveOffLoop serves a request that may take arbitrarily long.
func (n *Node) serveOffLoop(c *pool.ServerConn, id uint64, req request) {
	defer c.Done()
	resp := n.dispatchAdmitted(req)
	n.reply(c, id, &resp)
}

// reply encodes resp straight into the connection's write batch, its
// size class reserved up front (a fetch reply carries its value).
func (n *Node) reply(c *pool.ServerConn, id uint64, resp *response) {
	c.Reply(id, resp.SizeHint(), func(buf []byte) ([]byte, error) {
		encStart := time.Now()
		out, err := codec.AppendResponse(buf, resp)
		n.tel.codecEncodeBin.Observe(time.Since(encStart).Nanoseconds())
		return out, err
	})
}

// dispatch routes one request to its handler: an admitted wire request,
// or one exchange answers in-process. st is the server-side trace scope
// when the request carried a sampled context (nil otherwise); handlers
// that fan out or fsync thread it through so those costs land in the
// right span phases.
func (n *Node) dispatch(req request, st *opTrace) response {
	switch req.Op {
	case "ping":
		return response{}
	case "state":
		return response{State: n.wireState()}
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
			n.putLocal(k, item{Val: w.V, Ver: w.Ver, Src: w.Src})
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
// The candidates are built in dst's backing array, so a route op, which
// owns its candidate buffer, pays no allocation; a nil or short dst
// allocates a fresh list.
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
// now responsible for — the key migration of the join protocol — one
// frame's worth at a time: the page holds those from req.Key on, in key
// order, and Found reports that more follow it. With replication
// enabled the previous holder keeps its copy: as the newcomer's leaf
// neighbor it usually stays inside the key's replica scope, and the
// anti-entropy pass garbage-collects it if not. Without, it drops what
// the page carries, unless a lone item overruns the frame and the
// reply cannot carry it.
func (n *Node) handleReclaim(req request) response {
	newcomer := toEntry(req.From).ID
	n.mu.Lock()
	defer n.mu.Unlock()
	var keys []string
	n.store.Range(func(k string, _ item) bool {
		if k >= req.Key && n.space.Closer(n.keyPoint(k), newcomer, n.id) {
			keys = append(keys, k)
		}
		return true
	})
	sort.Strings(keys)
	m, fits := n.transferPage(keys, func(k string) []byte {
		it, _ := n.store.Get(k)
		return it.Val
	})
	items := make(map[string]WireItem, m)
	for _, k := range keys[:m] {
		it, _ := n.store.Get(k)
		items[k] = WireItem{V: it.Val, Ver: it.Ver, Src: it.Src}
		if n.cfg.Replicas <= 1 && fits {
			n.store.Delete(k)
		}
	}
	n.updateStoreGaugeLocked()
	return response{Items: items, Found: m < len(keys)}
}
