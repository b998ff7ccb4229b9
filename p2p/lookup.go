package p2p

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/internal/ids"
	"cycloid/p2p/codec"
	"cycloid/p2p/pool"
)

// Route describes one resolved lookup.
type Route struct {
	Target   ids.CycloidID
	Terminal ids.CycloidID
	Addr     string // terminal's transport address
	Hops     int
	Timeouts int       // unreachable candidates skipped
	Phases   PhaseHops // hops per routing phase
	// Hinted reports that the caller's start address (PutAt, GetAt)
	// served the operation without a route: Addr is that address, and
	// Terminal, Hops and Phases are unset.
	Hinted bool
	// TraceID is the operation's 32-hex-character distributed trace ID
	// when it was sampled (Config.TraceSample or anomaly-forced), ""
	// otherwise. Load harnesses attach it to SLO outliers so a p99
	// exemplar can be pulled from the cluster's span buffers.
	TraceID string
	// Ver is the owner-assigned version of the value a Get returned,
	// as the answering store held it; 0 for lookups and misses.
	Ver uint64
}

// PhaseHops splits a route's hops by the Section 3.2 routing phase of
// the step that offered each — Fig 7's breakdown. Greedy leaf-set hops
// count as traverse.
type PhaseHops struct {
	Ascending, Descending, Traverse int
}

// add counts a hop of phase ph; an "other" hop counts only in Route.Hops.
func (p *PhaseHops) add(ph int) {
	if ph < len(phaseNames)-1 {
		*[...]*int{&p.Ascending, &p.Descending, &p.Traverse}[ph]++
	}
}

// Lookup routes a request for an application key from this node and
// returns the route to the responsible node.
func (n *Node) Lookup(key string) (Route, error) {
	return n.LookupContext(context.Background(), key)
}

// LookupContext is Lookup with each per-candidate dial capped by the
// context's deadline, so a blackholed neighbor costs at most the time
// the caller budgeted rather than the full dial-timeout ladder.
func (n *Node) LookupContext(ctx context.Context, key string) (Route, error) {
	ot := n.beginOp("lookup", key)
	r, err := n.route(ctx, *n.selfEntry(), n.keyPoint(key), nil, ot)
	if id := n.endOp(ot, err); id != "" {
		r.TraceID = id
	}
	return r, err
}

// Put stores a value on the node responsible for the key; with
// replication enabled the owner fans copies out to its replica set.
func (n *Node) Put(key string, value []byte) error {
	return n.PutContext(context.Background(), key, value)
}

// PutContext is Put with dials capped by the context's deadline.
func (n *Node) PutContext(ctx context.Context, key string, value []byte) error {
	_, err := n.PutAt(ctx, "", key, value)
	return err
}

// PutAt is PutContext with an optional start address: the node the
// caller believes owns key, typically the Route.Addr an earlier PutAt
// returned for it. A usable hint (see hintUsable) takes the store
// directly, skipping the O(d) route; one that rejects the key routes it
// on, as a routed store does (storeChain). A hint that cannot be
// reached, sheds, or whose store fails even so falls back to the routed
// Put. A miss never counts as a route timeout; an unreachable hint is
// suspected, so no later hint dials it again. The returned Route's Addr
// is the node that acknowledged the write. value stays the caller's: a
// node that stores it itself keeps a copy, so the caller may reuse it
// once PutAt returns.
func (n *Node) PutAt(ctx context.Context, hint, key string, value []byte) (r Route, err error) {
	ot := n.beginOp("put", key)
	defer func() { n.endOp(ot, err) }()
	kp := n.keyPoint(key)
	if n.hintUsable(hint) {
		if hint == n.Addr() {
			if n.mayHold(kp) {
				_, err = n.putOwner(ctx, key, append([]byte(nil), value...), ot)
				return Route{Target: kp, Addr: hint, Hinted: true}, err
			}
		} else {
			addr, herr := n.storeChain(ctx, hint, key, value, ot)
			if herr == nil {
				return Route{Target: kp, Addr: addr, Hinted: true}, nil
			}
			n.hintMissed(ctx, addr, herr)
		}
	}
	r, err = n.route(ctx, *n.selfEntry(), kp, nil, ot)
	if err != nil {
		return r, err
	}
	if r.Terminal == n.id {
		_, err = n.putOwner(ctx, key, append([]byte(nil), value...), ot)
		return r, err
	}
	r.Addr, err = n.storeChain(ctx, r.Addr, key, value, ot)
	return r, err
}

// storeChain sends a store to addr. A racing join, or a stale hint, can
// make the receiver disown the key by the time the store arrives; it
// rejects it (with a redirect entry), and rather than strand the value
// the write routes from the rejecting node to the key's terminal and
// stores there, once. It returns the address that acknowledged the
// store, or on failure the last address contacted.
func (n *Node) storeChain(ctx context.Context, addr, key string, value []byte, ot *opTrace) (string, error) {
	resp, err := n.callRetry(ctx, addrOnly(addr), request{Op: "store", Key: key, Value: value}, nil, ot)
	if err == nil || resp.Redirect == nil {
		if err == nil {
			n.tel.redirectDepth.Observe(0)
		}
		return addr, err
	}
	n.tel.putRedirects.Inc()
	n.log.Debug("store rejected, routing from the rejecting node", "key", key, "from", addr)
	r, rerr := n.route(ctx, addrOnly(addr), n.keyPoint(key), nil, ot)
	if rerr != nil {
		return addr, fmt.Errorf("p2p: put %q: %w (and routing from %s: %w)", key, err, addr, rerr)
	}
	if r.Terminal == n.id {
		_, err = n.putOwner(ctx, key, append([]byte(nil), value...), ot)
	} else {
		_, err = n.callRetry(ctx, entry{ID: r.Terminal, Addr: r.Addr}, request{Op: "store", Key: key, Value: value}, nil, ot)
	}
	if err != nil {
		return r.Addr, err
	}
	n.tel.redirectDepth.Observe(1)
	return r.Addr, nil
}

// hintUsable reports whether a caller's start address is worth one
// exchange: given, not suspected, not inside an overload window, and
// this node still running (a stopped node answers through the routed
// path's ErrStopped).
func (n *Node) hintUsable(addr string) bool {
	return addr != "" && !n.isStopped() && !n.peer(addr).demoted()
}

// hintMissed accounts one failed hinted exchange. A hint is advisory,
// so a miss is never a route timeout; only an unreachable peer is
// suspected — one that answered (a rejection, a busy reply) is alive,
// and a caller that gave up proves nothing about the peer.
func (n *Node) hintMissed(ctx context.Context, addr string, err error) {
	var pe peerError
	if err == nil || IsBusy(err) || errors.As(err, &pe) || ctx.Err() != nil {
		return
	}
	n.suspect(addr)
}

// Get fetches the value stored under key, routing from this node. When
// the routed owner is unreachable and replication is enabled, the read
// falls back through the replica set: the failure is promoted into the
// route's timeout accounting, the corpse is suspected so the re-route
// steers around it, and the crash successor's neighborhood — where the
// dead owner's replicas live — is probed for a surviving copy.
func (n *Node) Get(key string) ([]byte, Route, error) {
	return n.GetContext(context.Background(), key)
}

// GetContext is Get with dials capped by the context's deadline.
func (n *Node) GetContext(ctx context.Context, key string) ([]byte, Route, error) {
	return n.GetAt(ctx, "", key, nil)
}

// GetAt is GetContext with an optional start address: the node the
// caller believes holds key, typically the Route.Addr a PutAt of it
// returned. A usable hint (see hintUsable) gets one fetch; when it
// answers with a copy the read is done without a route. A hint that
// cannot be reached, sheds, or holds no copy falls back to the routed
// Get, replica fallback included. As with PutAt, a miss is never a
// route timeout, and an unreachable hint is suspected.
//
// The value is returned append-style in dst: whichever path answers,
// it is decoded (or, from this node's own store, copied) into
// dst[:0]'s backing array when it fits, and into a fresh slice
// otherwise, so a reader that owns the destination pays one copy per
// value. A nil dst always yields a fresh slice; an empty value is nil.
// Either way the result shares no memory with any store.
func (n *Node) GetAt(ctx context.Context, hint, key string, dst []byte) (val []byte, r Route, err error) {
	ot := n.beginOp("get", key)
	defer func() {
		if id := n.endOp(ot, err); id != "" {
			r.TraceID = id
		}
	}()
	kp := n.keyPoint(key)
	if n.hintUsable(hint) {
		to := addrOnly(hint)
		if hint == n.Addr() {
			to = *n.selfEntry()
		}
		resp := response{Value: dst}
		ferr := n.exchange(ctx, to, &request{Op: "fetch", Key: key}, &resp, ot)
		if ferr == nil && resp.Found {
			return resp.Value, Route{Target: kp, Addr: hint, Hinted: true, Ver: resp.Ver}, nil
		}
		n.hintMissed(ctx, hint, ferr)
	}
	r, err = n.route(ctx, *n.selfEntry(), kp, nil, ot)
	if err != nil {
		return nil, r, err
	}
	// tried collects the addresses this read fetched from. Until the
	// loop below ends, each of them failed its fetch and so already cost
	// the read a timeout; the re-route avoids them all, so the same
	// corpse is not dialed — and charged — a second time by pass-1
	// candidate ordering (a one-strike suspect is demoted, not skipped).
	var tried []string
	term := entry{ID: r.Terminal, Addr: r.Addr}
	for attempt := 0; attempt < n.cfg.Replicas; attempt++ {
		tried = append(tried, term.Addr)
		resp, ferr := n.callRetry(ctx, term, request{Op: "fetch", Key: key}, dst, ot)
		if ferr == nil {
			if resp.Found {
				r.Ver = resp.Ver
				return resp.Value, r, nil
			}
			break // reachable but empty: fall through to the replica probe
		}
		if n.cfg.Replicas <= 1 {
			return nil, r, ferr
		}
		// An overloaded owner is not dead: it falls back through a
		// replica without a timeout charge or a suspicion strike. The
		// wire layer's soft demotion already steers this round's re-route
		// around it, and it rejoins routing when its window expires.
		if !IsBusy(ferr) {
			// Owner died between route and fetch: account the timeout,
			// suspect the corpse, and re-route — candidate ordering now
			// avoids it, so the route terminates at the crash successor.
			r.Timeouts++
			n.chargeTimeout(term.Addr, ot)
		}
		n.tel.replicaFallbacks.Inc()
		ot.annotate("replica-fallback")
		n.log.Debug("owner unreachable, rerouting", "key", key, "owner", term.Addr, "err", ferr)
		r2, rerr := n.route(ctx, *n.selfEntry(), kp, tried, ot)
		if rerr != nil {
			return nil, r, ferr
		}
		r.Hops += r2.Hops
		r.Timeouts += r2.Timeouts
		r.Phases.Ascending += r2.Phases.Ascending
		r.Phases.Descending += r2.Phases.Descending
		r.Phases.Traverse += r2.Phases.Traverse
		r.Terminal, r.Addr = r2.Terminal, r2.Addr
		term = entry{ID: r2.Terminal, Addr: r2.Addr}
		if slices.Contains(tried, term.Addr) {
			break // rerouting made no progress
		}
	}
	if n.cfg.Replicas > 1 {
		// The terminal answered but has no copy (a crash successor the
		// anti-entropy pass has not reached yet, or a mid-transition
		// owner): probe its leaf neighborhood, which coincides with the
		// previous owner's replica set.
		if it, ok := n.localFetch(key, dst); ok {
			r.Ver = it.Ver
			return it.Val, r, nil
		}
		for _, cand := range n.replicaProbes(ctx, term, kp, tried) {
			n.tel.replicaProbes.Inc()
			switch resp, ferr := n.callRetry(ctx, cand, request{Op: "fetch", Key: key}, dst, ot); {
			case ferr == nil && resp.Found:
				r.Ver = resp.Ver
				return resp.Value, r, nil
			case ferr != nil && !IsBusy(ferr):
				r.Timeouts++
				n.chargeTimeout(cand.Addr, ot)
			}
		}
	}
	return nil, r, ErrNotFound
}

// localFetch reads a key's value and version from this node's own
// store, the value copied into dst as GetAt returns it.
func (n *Node) localFetch(key string, dst []byte) (item, bool) {
	n.mu.RLock()
	it, ok := n.store.Get(key)
	n.mu.RUnlock()
	if !ok {
		return item{}, false
	}
	return item{Val: codec.CopyValue(dst, it.Val), Ver: it.Ver}, true
}

// replicaProbes lists the terminal's leaf neighborhood ranked by
// closeness to the key, excluding this node and addresses already
// consulted — the candidates most likely to hold a replica of the key —
// known corpses last.
func (n *Node) replicaProbes(ctx context.Context, term entry, kp ids.CycloidID, tried []string) []entry {
	st, err := n.stateOf(ctx, term)
	if err != nil {
		return nil
	}
	out := slices.DeleteFunc(n.rank(kp, append([]entry{term}, leafEntries(st)...)), func(e entry) bool {
		return e.ID == n.id || e.Addr == term.Addr || slices.Contains(tried, e.Addr)
	})
	// A known corpse goes last, probed only when fewer live candidates
	// are left than a replica set holds: the read is about to report a
	// miss, and a suspect may be a live peer this node lost touch with
	// for a while (a healed partition): reaching for its copy costs at
	// most one timeout.
	slices.SortStableFunc(out, func(a, b entry) int {
		switch da, db := n.peer(a.Addr).dead(), n.peer(b.Addr).dead(); {
		case da == db:
			return 0
		case da:
			return 1
		}
		return -1
	})
	return out[:min(len(out), n.cfg.Replicas)]
}

// route resolves target t from start, a live node: this one for
// lookups, reads, writes and maintenance, a bootstrap or leaf neighbour
// for Join and Leave, which route before or after this node is part of
// the overlay, and a node that rejected a store for PutAt. The route is
// forwarded: each node on the path decides with its own routing state
// and hands the step on to the next over its own pooled connection
// (routeOp), and the terminal's answer travels back along the path, so
// no node ever contacts more than its own seven entries. A candidate
// that cannot be reached costs the node that tried it a timeout, the
// live-network equivalent of the paper's timeout accounting, and that
// node tries its next candidate; the reply carries the timeouts, hops
// and phases of the whole path back here.
//
// Every address in avoid counts as already dead: no hop dials or
// charges it (a read re-routing around an owner whose corpse it already
// paid for once). The context bounds how long this node waits for the
// answer, and each of its own dials; the nodes downstream bound theirs
// by DialTimeout.
func (n *Node) route(ctx context.Context, start entry, t ids.CycloidID, avoid []string, ot *opTrace) (r Route, err error) {
	if start.ID == n.id && n.isStopped() {
		return Route{}, ErrStopped
	}
	defer func() {
		n.tel.lookups.Inc()
		n.tel.lookupHops.Observe(int64(r.Hops))
		if err != nil {
			n.tel.failures.Inc()
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return Route{Target: t}, fmt.Errorf("p2p: route to %v: %w", t, cerr)
	}
	op := n.newRouteOp(WireEntry{K: t.K, A: t.A})
	op.ot = ot
	op.deadline, _ = ctx.Deadline()
	op.rs.Avoid = append(op.rs.Avoid, avoid...)
	op.mu.Lock()
	if start.ID == n.id {
		op.begin()
	} else {
		// The start decides first; the contact is no hop.
		op.cands[0], op.nc = wireEntry(start), 1
		op.fromStart = true
		op.advance()
	}
	op.mu.Unlock()
	select {
	case <-op.done:
	case <-ctx.Done():
		if op.abandon() {
			return Route{Target: t}, fmt.Errorf("p2p: route to %v: %w", t, ctx.Err())
		}
		<-op.done
	}
	op.mu.Lock() // the event that settled the op has let go of it
	r, err, forced := op.res, op.err, op.rs.Forced
	op.mu.Unlock()
	op.recycle()
	// Anomalies downstream force this trace, as they would have had
	// this node met them itself.
	if r.Timeouts > 0 {
		ot.force("timeout")
	}
	if forced&codec.RouteShed != 0 {
		ot.force("shed")
	}
	if forced&codec.RouteGreedy != 0 {
		ot.force("greedy-fallback")
	}
	return r, err
}

// routeTags numbers the attempts of every route op in the process, so
// an answer to an attempt an op gave up on, perhaps before the op was
// recycled, never passes for the current one.
var routeTags atomic.Uint64

// routeOp is one route in progress at this node: one it started (route),
// or a step a peer sent it (serveStep). Both run the same routine. The
// node decides with DecideStepScratch on its routingState; the first
// usable candidate gets the step over this node's pooled connection
// (pool.Forward) and the op waits, holding nothing, for its answer. A
// candidate that fails is charged here — a timeout and a suspicion
// strike, or an overload window for a busy one — added to the route's
// avoid list, and the next is tried. This node's peer table reorders
// the decision's preference (advance): a candidate with one strike or
// inside its overload window is tried only after every clean one
// failed, and one with suspectDrop strikes is skipped until
// stabilization re-probes it, so the same corpse stops costing a
// timeout on every route. The first answer that is no shed ends the op:
// a forwarder relays it upstream unread, the origin decodes it into its
// Route. When no candidate is left, or the decision is that the target
// is reached, this node is the terminal and answers itself.
//
// Events — the start, the answer, a failure, the pool's waiting checks
// — run under mu, each short and non-blocking, since they may run on a
// connection's read loop. Whoever settles a forwarder's op recycles it
// once it lets go of mu (unlock); route recycles the origin's, unless it
// gave up waiting, and then the op's last event does. Ops are pooled, so
// a fault-free hop allocates none of this.
type routeOp struct {
	mu   sync.Mutex
	done chan struct{} // the origin's wait
	opState
}

// opState is a route op's state, zeroed when the op is recycled.
type opState struct {
	n *Node

	// target and rs are the route as it reached this node: the origin
	// fills them in, a forwarder decodes the step into them (in).
	in     request
	target WireEntry
	rs     codec.RouteState
	greedy bool
	ot     *opTrace // the origin's op scope, or a forwarder's server scope

	// This node's decision and the walk over its candidates.
	phase      int
	out        codec.RouteState // the state a forwarded step or a terminal reply carries
	cands      [maxStepCands]WireEntry
	nc         int
	pass, next int
	hop        hopNote
	fromStart  bool // the origin's one contact with a remote start

	// The attempt in flight: its tag, its candidate, its call span.
	tag   uint64
	cur   WireEntry
	sid   uint64
	t0    time.Time
	sent  time.Time
	added bool // the upstream call is held open (ServerConn.Add)
	// arrived is when a step that goes through admission reached this
	// node; zero otherwise.
	arrived time.Time
	settle  bool // the op has ended

	// Upstream: the call a forwarder answers and the node that sent it,
	// or the origin's result.
	sc        *pool.ServerConn
	from      string
	id        uint64
	deadline  time.Time
	abandoned bool
	res       Route
	err       error
}

var routeOps = sync.Pool{New: func() any { return &routeOp{done: make(chan struct{}, 1)} }}

// newRouteOp checks an op out of the pool for a route toward target.
func (n *Node) newRouteOp(target WireEntry) *routeOp {
	op := routeOps.Get().(*routeOp)
	op.n = n
	op.target = target
	return op
}

// recycle clears the op and returns it to the pool. It takes mu, so a
// stale pool event still running on the op finishes first, and finds a
// tag it no longer matches.
func (op *routeOp) recycle() {
	op.mu.Lock()
	avoid := op.rs.Avoid[:0]
	op.opState = opState{}
	op.rs.Avoid = avoid
	op.mu.Unlock()
	routeOps.Put(op)
}

// unlock releases mu, and recycles the op when this event settled a
// forwarder's op or one the origin gave up on: nobody else touches it
// after that.
func (op *routeOp) unlock() {
	free := op.settle && (op.sc != nil || op.abandoned)
	op.mu.Unlock()
	if free {
		op.recycle()
	}
}

// begin runs this node's part of the route as the step reached it:
// decide, then end the route here or try the first candidate.
func (op *routeOp) begin() {
	if end, err := op.decide(); end {
		op.end(nil, err)
		return
	}
	op.advance()
}

// decide runs the stall check and the local decision. It reports
// whether the route ends here: with this node as the terminal (err nil),
// or failed.
func (op *routeOp) decide() (end bool, err error) {
	n := op.n
	self := WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
	t := toEntry(op.target).ID
	d := n.space.Dim()
	window, budget := 4*d+16, 64*d+128
	if op.rs.Hops == 0 {
		op.rs.Best, op.rs.Since = self, 0
	} else {
		if n.space.Closer(t, n.id, toEntry(op.rs.Best).ID) {
			op.rs.Best, op.rs.Since = self, 0
		} else {
			op.rs.Since++
		}
		if !op.greedy && (int(op.rs.Since) >= window || int(op.rs.Hops) >= budget) {
			// Phased routing stalled or overran its hop budget: from here
			// on the route forwards greedily through leaf sets.
			op.greedy = true
			op.rs.Forced |= codec.RouteGreedy
			n.tel.greedyFallbacks.Inc()
			op.ot.force("greedy-fallback")
		}
		if int(op.rs.Hops) >= 2*budget {
			return true, fmt.Errorf("p2p: route to %v did not converge", t)
		}
	}
	step := n.localStep(t, op.greedy, op.cands[:0])
	if step.Done {
		return true, nil
	}
	op.phase = phaseOf(step.Phase)
	op.nc = len(step.Candidates)
	return false, nil
}

// advance walks the candidates from where the last attempt left off and
// forwards to the first usable one; with none left, this node is the
// terminal. Pass 0 skips known corpses outright and leaves demoted
// peers (one strike, or an overload window) and the sender for pass 1.
func (op *routeOp) advance() {
	n := op.n
	for ; op.pass < 2; op.pass, op.next = op.pass+1, 0 {
		for ; op.next < op.nc; op.next++ {
			c := op.cands[op.next]
			if c.Addr == n.Addr() || slices.Contains(op.rs.Avoid, c.Addr) {
				continue
			}
			if !op.fromStart {
				h := n.peer(c.Addr)
				if h.dead() {
					if op.pass == 0 {
						op.hop.skipped++
						n.tel.skips.Inc()
					}
					continue
				}
				if op.pass == 0 && h.demoted() {
					op.hop.demoted++
					n.tel.demotions.Inc()
					continue
				}
				if op.pass == 0 && c.Addr == op.from {
					// The node that sent the step here is tried last too: a
					// fault-free route never returns to it, so only a
					// demotion there sent the step this way, and the two
					// would pass it back and forth until the stall check
					// gave up on phased routing.
					continue
				}
			}
			op.hop.rank = op.next
			if err := op.forward(c); err != nil {
				op.failed(c, err)
				continue
			}
			op.next++
			return
		}
		if op.fromStart {
			break
		}
	}
	if op.fromStart {
		op.end(nil, fmt.Errorf("p2p: route: first hop: %w", op.err))
		return
	}
	// Every candidate unreachable: this node keeps the request.
	op.end(nil, nil)
}

// forward sends the step on to c as this attempt. An error means it
// never left; otherwise Complete hears how it went.
func (op *routeOp) forward(c WireEntry) error {
	n := op.n
	timeout := n.cfg.DialTimeout
	if !op.deadline.IsZero() {
		if timeout = min(timeout, time.Until(op.deadline)); timeout <= 0 {
			return fmt.Errorf("p2p: dial %s: %w", c.Addr, context.DeadlineExceeded)
		}
	}
	op.out = op.rs
	if !op.fromStart {
		op.out.Hops++
		if op.phase < len(op.out.Phases) {
			op.out.Phases[op.phase]++
		}
	}
	if op.sc != nil && !op.added {
		op.sc.Add() // answered from wherever the reply arrives (end)
		op.added = true
	}
	if !op.arrived.IsZero() && time.Since(op.arrived) >= timeout/4 {
		// Admission or service kept the caller waiting: tell it this
		// node is alive before its own clock runs out.
		op.sc.Progress(op.id)
		op.arrived = time.Time{}
	}
	op.in = request{
		Op:         "step",
		From:       WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()},
		Target:     &op.target,
		GreedyOnly: op.greedy,
		Route:      &op.out,
		DeadlineMs: uint32(min(max(timeout.Milliseconds(), 1), int64(^uint32(0)))),
	}
	op.tag = routeTags.Add(1)
	op.cur = c
	op.sid, op.t0 = op.ot.startCall(&op.in)
	op.sent = time.Now()
	fb := codec.GetBufferSize(op.in.SizeHint() + 32*len(op.out.Avoid))
	var err error
	fb.B, err = codec.AppendRequest(fb.B, &op.in)
	n.tel.codecEncodeBin.Observe(time.Since(op.sent).Nanoseconds())
	if err == nil {
		err = n.pool.Forward(c.Addr, fb.B, timeout, op, op.tag)
	}
	codec.PutBuffer(fb)
	op.in = request{}
	if berr := n.saturated(c.Addr, err); berr != nil {
		err = berr
	} else if err != nil {
		n.tel.dialFailures.Inc()
	}
	if err != nil {
		op.ot.endCall(op.sid, op.t0, "step", c.Addr, err)
	}
	return err
}

// failed accounts a candidate that could not take the step: a busy one
// is stepped around without a charge, anything else costs this node a
// timeout and the peer a suspicion strike. Either way the rest of the
// route avoids it.
func (op *routeOp) failed(c WireEntry, err error) {
	op.rs.Avoid = append(op.rs.Avoid, c.Addr)
	op.err = err
	if op.fromStart {
		return
	}
	if IsBusy(err) {
		op.rs.Forced |= codec.RouteShed
		op.ot.force("shed")
		return
	}
	op.rs.Timeouts++
	op.n.chargeTimeout(c.Addr, op.ot)
}

// Complete is the pool's answer to the attempt tagged tag.
func (op *routeOp) Complete(tag uint64, rep pool.Reply, err error) {
	op.mu.Lock()
	if tag != op.tag || op.settle {
		op.mu.Unlock()
		rep.Release()
		return
	}
	n, c := op.n, op.cur
	if berr := n.saturated(c.Addr, err); berr != nil {
		// A first contact whose dial found the peer's connections full.
		err = berr
	} else if err == nil && codec.BusyReply(rep.Payload) {
		var resp response
		if derr := codec.DecodeResponse(rep.Payload, &resp); derr == nil {
			err = n.busy(c.Addr, resp.RetryAfterMs)
		} else {
			err = derr
		}
	}
	if err != nil {
		rep.Release()
		if !IsBusy(err) {
			n.tel.dialFailures.Inc()
			err = fmt.Errorf("p2p: call %s: %w", c.Addr, err)
		}
		op.ot.endCall(op.sid, op.t0, "step", c.Addr, err)
		op.failed(c, err)
		op.advance()
		if !op.settle && op.sc != nil {
			// The failed attempt may have kept the caller waiting for up
			// to a whole timeout (a dial, a silent peer), and the next
			// one's first waiting check is half a timeout away: tell the
			// caller now that this node is still at work.
			op.sc.Progress(op.id)
		}
		op.unlock()
		return
	}
	// The peer took the step: the hop is made, whatever came of the
	// rest of the route.
	n.contacted(c.Addr, time.Since(op.sent))
	if !op.fromStart {
		n.tel.phaseHops[op.phase].Inc()
	}
	var notes []string
	if op.sid != 0 {
		notes = op.hop.annotations(op.phase, op.greedy)
	}
	op.ot.endCall(op.sid, op.t0, "step", c.Addr, nil, notes...)
	op.end(&rep, nil)
	op.unlock()
}

// Waiting is the pool's word that the attempt tagged tag is still in
// flight: a forwarder tells its own caller it is alive.
func (op *routeOp) Waiting(tag uint64) {
	op.mu.Lock()
	if tag == op.tag && !op.settle && op.sc != nil {
		op.sc.Progress(op.id)
	}
	op.mu.Unlock()
}

// end settles the op with the downstream answer rep, or, when rep is
// nil, with this node as the terminal (err nil) or the route's failure.
// A forwarder answers its caller; the origin's answer is read by route.
func (op *routeOp) end(rep *pool.Reply, err error) {
	op.settle = true
	n := op.n
	if op.sc == nil {
		op.res, op.err = Route{Target: toEntry(op.target).ID}, err
		switch {
		case rep != nil:
			var resp response
			resp.Route = &op.rs
			if derr := codec.DecodeResponse(rep.Payload, &resp); derr != nil {
				op.err = fmt.Errorf("p2p: receive from %s: %w", op.cur.Addr, derr)
			} else if resp.Err != "" {
				op.err = fmt.Errorf("p2p: route via %s: %w", op.cur.Addr, peerError(resp.Err))
			} else if resp.Route == nil {
				op.err = fmt.Errorf("p2p: route via %s: reply carries no route", op.cur.Addr)
			} else {
				op.res.setTotals(&op.rs)
			}
			rep.Release()
		case err == nil:
			op.rs.Best = WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
			op.res.setTotals(&op.rs)
		}
		if !op.abandoned {
			op.done <- struct{}{}
		}
		return
	}
	if rep != nil {
		payload := rep.Payload
		op.sc.Relay(op.id, len(payload), func(buf []byte) ([]byte, error) { return append(buf, payload...), nil })
		rep.Release()
	} else {
		// The terminal's totals; the stall check's state and the avoid
		// list stay behind.
		op.out = codec.RouteState{Hops: op.rs.Hops, Phases: op.rs.Phases, Timeouts: op.rs.Timeouts, Forced: op.rs.Forced}
		resp := response{Route: &op.out}
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.OK = true
			op.out.Best = WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
		}
		op.answer(&resp)
	}
	var msg string
	if err != nil {
		msg = err.Error()
	}
	n.endServer(op.ot, msg)
	op.ot = nil
}

// answer sends a forwarder's own reply upstream: queued for the read
// loop to flush when the step is still being served there, relayed when
// it is answered from anywhere else.
func (op *routeOp) answer(resp *response) {
	if op.added {
		op.sc.Relay(op.id, resp.SizeHint(), func(buf []byte) ([]byte, error) { return codec.AppendResponse(buf, resp) })
	} else {
		op.n.reply(op.sc, op.id, resp)
	}
}

// abandon tells the op that route stopped waiting for it, and drops the
// op's hold on the operation's trace scope, which route's caller is about
// to close. It reports false when the op has already ended and its
// answer is waiting in done.
func (op *routeOp) abandon() bool {
	op.mu.Lock()
	defer op.mu.Unlock()
	if op.settle {
		return false
	}
	op.abandoned, op.ot = true, nil
	return true
}

// setTotals copies a finished route's totals into r.
func (r *Route) setTotals(rs *codec.RouteState) {
	term := toEntry(rs.Best)
	r.Terminal, r.Addr = term.ID, term.Addr
	r.Hops, r.Timeouts = int(rs.Hops), int(rs.Timeouts)
	r.Phases = PhaseHops{Ascending: int(rs.Phases[0]), Descending: int(rs.Phases[1]), Traverse: int(rs.Phases[2])}
}

// phaseNames are the Section 3.2 routing phases and, last, "other" for
// a name this node does not know. A route op maps its decision's phase
// to its index here once; the index keys the per-phase hop counters and
// the route state's per-phase counts.
var phaseNames = [...]string{"ascending", "descending", "traverse", "other"}

func phaseOf(name string) int {
	if p := slices.Index(phaseNames[:], name); p >= 0 {
		return p
	}
	return len(phaseNames) - 1
}

// chargeTimeout accounts one unreachable peer, the paper's timeout: the
// node's timeout count, a suspicion strike, a forced trace. The caller
// adds it to its route's count.
func (n *Node) chargeTimeout(addr string, ot *opTrace) {
	n.tel.timeouts.Inc()
	n.suspect(addr)
	ot.force("timeout")
}

// hopNote is how a node chose the candidate it forwarded a step to: its
// rank in the decision's preference order, and the suspects demoted or
// skipped before it. The phase is the decision's.
type hopNote struct {
	rank, demoted, skipped int
}

// annotations renders the note for the step call span of a hop the
// route made; greedy marks greedy-only leaf-set forwarding.
func (h hopNote) annotations(phase int, greedy bool) []string {
	a := []string{"phase=" + phaseNames[phase]}
	if h.rank > 0 {
		a = append(a, "cand="+strconv.Itoa(h.rank))
	}
	if h.demoted > 0 {
		a = append(a, "demoted="+strconv.Itoa(h.demoted))
	}
	if h.skipped > 0 {
		a = append(a, "skipped="+strconv.Itoa(h.skipped))
	}
	if greedy {
		a = append(a, "greedy")
	}
	return a
}

// maxStepCands bounds a route op's candidate list: the decision ranks
// the node's seven routing entries, deduplicated.
const maxStepCands = 7
