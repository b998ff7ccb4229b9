package p2p

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"cycloid/internal/ids"
	"cycloid/p2p/codec"
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
// directly, skipping the O(d) route, through the same redirect chain a
// routed store follows; a hint that cannot be reached, sheds, or
// rejects the key falls back to the routed Put. A miss never counts as
// a route timeout; an unreachable hint is suspected, so no later hint
// dials it again. The returned Route's Addr is the node that
// acknowledged the write. value stays the caller's: a node that stores
// it itself keeps a copy, so the caller may reuse it once PutAt
// returns.
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

// storeChain sends a store to addr and follows its redirects. A racing
// join can make the receiver disown the key by the time the store
// arrives; it rejects with a redirect entry pointing at the node it
// believes responsible, and a short chain of those is followed rather
// than stranding the value. It returns the address that acknowledged
// the store, or on failure the last address contacted.
func (n *Node) storeChain(ctx context.Context, addr, key string, value []byte, ot *opTrace) (string, error) {
	for hop := 0; hop < 3; hop++ {
		resp, err := n.callRetry(ctx, addrOnly(addr), request{Op: "store", Key: key, Value: value}, nil, ot)
		if err == nil {
			n.tel.redirectDepth.Observe(int64(hop))
			return addr, nil
		}
		if resp.Redirect == nil {
			return addr, err
		}
		n.tel.putRedirects.Inc()
		n.log.Debug("store redirected", "key", key, "from", addr, "to", resp.Redirect.Addr)
		red := toEntry(*resp.Redirect)
		if red.ID == n.id {
			if _, perr := n.putOwner(ctx, key, append([]byte(nil), value...), ot); perr != nil {
				return n.Addr(), perr
			}
			n.tel.redirectDepth.Observe(int64(hop + 1))
			return n.Addr(), nil
		}
		addr = red.Addr
	}
	return addr, fmt.Errorf("p2p: put %q: no node accepted ownership", key)
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
		ferr := n.exchange(ctx, to, &request{Op: "fetch", Key: key}, &resp, ot, nil)
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
	tried := make(map[string]bool)
	term := entry{ID: r.Terminal, Addr: r.Addr}
	for attempt := 0; attempt < n.cfg.Replicas; attempt++ {
		tried[term.Addr] = true
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
			n.chargeTimeout(&r, term.Addr, ot)
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
		if tried[term.Addr] {
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
				n.chargeTimeout(&r, cand.Addr, ot)
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
// consulted — the candidates most likely to hold a replica of the key.
func (n *Node) replicaProbes(ctx context.Context, term entry, kp ids.CycloidID, tried map[string]bool) []entry {
	st, err := n.stateOf(ctx, term)
	if err != nil {
		return nil
	}
	out := slices.DeleteFunc(n.rank(kp, append([]entry{term}, leafEntries(st)...)), func(e entry) bool {
		// A known corpse is left out too: don't pay its timeout again.
		return e.ID == n.id || e.Addr == term.Addr || tried[e.Addr] || n.peer(e.Addr).dead()
	})
	return out[:min(len(out), n.cfg.Replicas)]
}

// route drives an iterative lookup from start, a live node: this one
// for lookups, reads, writes and maintenance, a bootstrap or leaf
// neighbour for Join and Leave, which route before or after this node
// is part of the overlay. At each step the current node's local decision
// yields candidates in preference order; a candidate that cannot be
// dialed costs a timeout and the next is tried, the live-network
// equivalent of the paper's timeout accounting.
//
// The peer table reorders that preference, one lookup per candidate: a
// candidate with one strike or inside its overload window is tried only
// after every clean candidate failed, and one with suspectDrop strikes
// is skipped outright until stabilization re-probes it — so the same
// corpse stops costing a timeout on every route. Every address in avoid
// counts as already dead: it is neither dialed nor charged a timeout (a
// read re-routing around an owner whose corpse it already paid for
// once). Each dial is additionally capped by the context's deadline.
//
// Every hop updates the node's metrics; under a sampled op scope each
// hop's step call span is annotated with how the hop was chosen.
func (n *Node) route(ctx context.Context, start entry, t ids.CycloidID, avoid map[string]bool, ot *opTrace) (r Route, err error) {
	if start.ID == n.id && n.isStopped() {
		return Route{}, ErrStopped
	}
	r = Route{Target: t}
	d := n.space.Dim()
	window := 4*d + 16
	budget := 64*d + 128
	greedyOnly := false
	// dead holds addresses that failed during this route; allocated
	// lazily since a clean route (the common case) never writes it.
	var dead map[string]bool
	defer func() {
		n.tel.lookups.Inc()
		n.tel.lookupHops.Observe(int64(r.Hops))
		if err != nil {
			n.tel.failures.Inc()
		}
	}()

	sb := stepBufsPool.Get().(*stepBufs)
	defer stepBufsPool.Put(sb)
	sb.target = WireEntry{K: t.K, A: t.A}

	cur := start
	best := start.ID
	sinceImprove := 0
	step, err := n.stepAt(ctx, cur, greedyOnly, ot, sb, nil)
	if err != nil {
		return r, fmt.Errorf("p2p: route: first hop: %w", err)
	}
	for !step.Done {
		if cerr := ctx.Err(); cerr != nil {
			return r, fmt.Errorf("p2p: route to %v: %w", t, cerr)
		}
		moved := false
		// Per-hop decision accounting, reset each forwarding step.
		hop := hopNote{phase: phaseOf(step.Phase)}
		for pass := 0; pass < 2 && !moved; pass++ {
			for ci, w := range step.Candidates {
				cand := toEntry(w)
				if dead[cand.Addr] || avoid[cand.Addr] {
					continue // already found unreachable
				}
				h := n.peer(cand.Addr)
				if h.dead() {
					if pass == 0 {
						hop.skipped++
						n.tel.skips.Inc()
					}
					continue // known corpse: skipped outright
				}
				if pass == 0 && h.demoted() {
					// Suspected or inside its overload window: demoted to
					// pass 1, tried only after every clean candidate.
					hop.demoted++
					n.tel.demotions.Inc()
					continue
				}
				hop.rank = ci
				next, serr := n.stepAt(ctx, cand, greedyOnly, ot, sb, &hop)
				if serr != nil {
					if dead == nil {
						dead = make(map[string]bool)
					}
					dead[cand.Addr] = true
					if IsBusy(serr) {
						// Shedding, not dead: step around it this round
						// without a timeout charge or a suspicion strike.
						ot.force("shed")
					} else {
						n.chargeTimeout(&r, cand.Addr, ot)
					}
					continue
				}
				r.Hops++
				r.Phases.add(hop.phase)
				n.tel.phaseHops[hop.phase].Inc()
				cur, step = cand, next
				moved = true
				break
			}
		}
		if !moved {
			break // every candidate unreachable: cur keeps the request
		}
		if n.space.Closer(t, cur.ID, best) {
			best = cur.ID
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		if !greedyOnly && (sinceImprove >= window || r.Hops >= budget) {
			// Phased routing stalled or overran its hop budget: re-decide
			// at cur, and from here on forward greedily through leaf sets.
			greedyOnly = true
			n.tel.greedyFallbacks.Inc()
			ot.force("greedy-fallback")
			if step, err = n.stepAt(ctx, cur, true, ot, sb, nil); err != nil {
				return r, err
			}
		}
		if r.Hops >= 2*budget {
			return r, fmt.Errorf("p2p: route to %v did not converge", t)
		}
	}
	r.Terminal = cur.ID
	r.Addr = cur.Addr
	return r, nil
}

// phaseNames are the Section 3.2 routing phases and, last, "other" for
// a name this node does not know. A route decodes each step reply's
// phase to its index here once; the index keys the per-phase hop
// counters and PhaseHops.
var phaseNames = [...]string{"ascending", "descending", "traverse", "other"}

func phaseOf(name string) int {
	if p := slices.Index(phaseNames[:], name); p >= 0 {
		return p
	}
	return len(phaseNames) - 1
}

// chargeTimeout accounts one unreachable peer to r, the paper's timeout:
// route and node timeout counts, a suspicion strike, a forced trace.
func (n *Node) chargeTimeout(r *Route, addr string, ot *opTrace) {
	r.Timeouts++
	n.tel.timeouts.Inc()
	n.suspect(addr)
	ot.force("timeout")
}

// hopNote is how a route chose the candidate it dials: the phase of the
// step that offered it, its rank in that step's preference order, and
// the suspects demoted or skipped before it.
type hopNote struct {
	phase, rank, demoted, skipped int
}

// annotations renders the note for the step call span of a hop the
// route made; greedy marks greedy-only leaf-set forwarding.
func (h hopNote) annotations(greedy bool) []string {
	a := []string{"phase=" + phaseNames[h.phase]}
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

// maxStepCands bounds a live step's candidate list: the decision ranks
// the node's seven routing entries, deduplicated.
const maxStepCands = 7

// stepBufs is one route's step storage, pooled across routes so a hop
// allocates none of it: the Target every step request of the route
// points at, and two candidate lists. The route walks the candidates of
// its current step out of one list while the step it probes next fills
// the other, so a failed probe — its reply perhaps half decoded — never
// overwrites the candidates the route falls back on.
type stepBufs struct {
	target WireEntry
	cands  [2][maxStepCands]WireEntry
	cur    int // the list backing the route's current step
}

var stepBufsPool = sync.Pool{New: func() any { return new(stepBufs) }}

// stepAt obtains the routing decision of the given node for sb's target,
// decoding its candidates into sb's spare list. A route adopts every
// step it obtains, so on success the spare list becomes current. A
// failure means the node is unreachable (dead), which the caller
// accounts as a timeout. hop, when not nil, is the note the step's call
// span carries if the exchange succeeds.
func (n *Node) stepAt(ctx context.Context, at entry, greedyOnly bool, ot *opTrace, sb *stepBufs, hop *hopNote) (response, error) {
	resp := response{Candidates: sb.cands[1-sb.cur][:0]}
	err := n.exchange(ctx, at, &request{Op: "step", Target: &sb.target, GreedyOnly: greedyOnly}, &resp, ot, hop)
	if err == nil {
		sb.cur = 1 - sb.cur
	}
	return resp, err
}
