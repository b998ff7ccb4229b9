package p2p

import (
	"context"

	"cycloid/internal/cycloid"
	"cycloid/internal/ids"
)

// The slot rule of Section 3.1, in one place. Every live decision about
// who fills a routing-state slot — a join deriving its leaf sets, a
// membership notification, a stabilization refresh and the
// routing-table search — hands candidates to better instead of carrying
// its own case analysis.

// slot indexes one of the seven routing-state entries. The four leaf
// slots come first.
type slot int

const (
	insideL slot = iota
	insideR
	outsideL
	outsideR
	cubical
	cyclicL
	cyclicS
)

// routingState is the live node's seven-entry state (LeafHalf = 1),
// indexed by slot. Leaf slots are never nil: a node that knows no one
// for a leaf slot holds itself there. A published state (Node.rs) is
// never changed, nor is any entry it points at: readers Load it once
// and read it without a lock, and writers publish a copy (editRS).
type routingState [7]*entry

// leaves returns the four leaf slots; it aliases the state.
func (rs *routingState) leaves() []*entry { return rs[:cubical] }

// nodeState converts the state of node id to the routing algorithm's
// input with every slot backed by buf, so the conversion costs the
// caller at most one allocation (zero when buf comes from a pool, as on
// the step hot path). The result aliases buf.
func (rs *routingState) nodeState(id ids.CycloidID, buf *[7]ids.CycloidID) cycloid.NodeState {
	s := cycloid.NodeState{ID: id}
	i := 0
	ptr := func(e *entry) *ids.CycloidID {
		if e == nil {
			return nil
		}
		buf[i] = e.ID
		i++
		return &buf[i-1]
	}
	s.Cubical = ptr(rs[cubical])
	s.CyclicL = ptr(rs[cyclicL])
	s.CyclicS = ptr(rs[cyclicS])
	one := func(e *entry) []ids.CycloidID {
		if e == nil {
			return nil
		}
		buf[i] = e.ID
		i++
		return buf[i-1 : i : i]
	}
	s.InsideL = one(rs[insideL])
	s.InsideR = one(rs[insideR])
	s.OutsideL = one(rs[outsideL])
	s.OutsideR = one(rs[outsideR])
	return s
}

// addrOf resolves a candidate ID to the address the state holds for it.
func (rs *routingState) addrOf(id ids.CycloidID) (string, bool) {
	for _, e := range rs {
		if e != nil && e.ID == id {
			return e.Addr, true
		}
	}
	return "", false
}

// editRS publishes a copy of the routing state changed by edit. rsMu
// orders the writers, so none loses another's change; readers never
// wait for it.
func (n *Node) editRS(edit func(rs *routingState)) {
	n.rsMu.Lock()
	defer n.rsMu.Unlock()
	next := *n.rs.Load()
	edit(&next)
	n.rs.Store(&next)
}

var tableSlots = [...]slot{cubical, cyclicL, cyclicS}

// fits reports whether e may fill slot s of node me at all: the inside
// leaf set holds members of me's cycle, the outside leaf set members of
// other cycles, and the routing table nodes with cyclic index k-1.
func fits(me ids.CycloidID, s slot, e entry) bool {
	switch {
	case e.ID == me:
		return false
	case s <= insideR:
		return e.ID.A == me.A
	case s <= outsideR:
		return e.ID.A != me.A
	}
	return me.K > 0 && e.ID.K == me.K-1
}

// better reports whether c belongs in slot s of node me = (k, a) ahead
// of cur, under the definitions of Section 3.1:
//
//   - insideL/insideR: the predecessor and successor on the local cycle;
//   - outsideL/outsideR: the primary (largest cyclic index) of the
//     nearest other cycle counter-clockwise and clockwise;
//   - cyclicL/cyclicS: the first node with cyclic index k-1 at or after,
//     and at or before, cubical index a;
//   - cubical: a node with cyclic index k-1 in the flipped block
//     a_{d-1}…a_{k+1} ¬a_k x…x, numerically closest to a⊕2^k with ties to
//     the smaller index; when the block holds none, the circularly
//     nearest such node, ties clockwise.
//
// A slot holding anything that does not fit it (me itself marks an
// empty leaf slot) loses to every candidate that does. The viewpoint is
// a parameter so a node can also judge a peer's slots from its state.
func better(sp ids.Space, me ids.CycloidID, s slot, c, cur entry) bool {
	if !fits(me, s, c) {
		return false
	}
	if !fits(me, s, cur) {
		return true
	}
	x, y := c.ID, cur.ID
	switch s {
	case insideL:
		return sp.ClockwiseCyclic(x.K, me.K) < sp.ClockwiseCyclic(y.K, me.K)
	case insideR:
		return sp.ClockwiseCyclic(me.K, x.K) < sp.ClockwiseCyclic(me.K, y.K)
	case outsideL:
		return nearer(sp.ClockwiseCycle(x.A, me.A), sp.ClockwiseCycle(y.A, me.A), x.K > y.K)
	case outsideR:
		return nearer(sp.ClockwiseCycle(me.A, x.A), sp.ClockwiseCycle(me.A, y.A), x.K > y.K)
	case cyclicL:
		return sp.ClockwiseCycle(me.A, x.A) < sp.ClockwiseCycle(me.A, y.A)
	case cyclicS:
		return sp.ClockwiseCycle(x.A, me.A) < sp.ClockwiseCycle(y.A, me.A)
	}
	f := me.A ^ 1<<me.K
	block := ^(uint32(1)<<me.K - 1)
	inX, inY := x.A&block == f&block, y.A&block == f&block
	if inX != inY {
		return inX
	}
	tie := sp.ClockwiseCycle(f, x.A) < sp.ClockwiseCycle(f, y.A)
	if inX {
		tie = x.A < y.A
	}
	return nearer(sp.CycleDist(x.A, f), sp.CycleDist(y.A, f), tie)
}

// nearer orders by distance, settling equal distances by tie.
func nearer(dx, dy uint32, tie bool) bool { return dx < dy || dx == dy && tie }

// offer puts each candidate into every leaf slot it belongs in ahead of
// the current holder.
func (n *Node) offer(cands ...entry) {
	n.editRS(func(rs *routingState) { n.place(rs, cands) })
}

// place is offer's rule applied to a state being edited.
func (n *Node) place(rs *routingState, cands []entry) {
	for s := range rs.leaves() {
		for _, c := range cands {
			if better(n.space, n.id, slot(s), c, *rs[s]) {
				rs[s] = clone(c)
			}
		}
	}
}

// adopts reports whether a peer in state st would put c into one of its
// leaf slots under the slot rule: what an update naming c would make it
// do.
func adopts(sp ids.Space, st *WireState, c entry) bool {
	at := toEntry(st.Self)
	for s, w := range wireSlots(st)[:cubical] {
		if better(sp, at.ID, slot(s), c, entryOr(w, at)) {
			return true
		}
	}
	return false
}

// tableSearch is one routing-table refresh: the local-remote search of
// Section 3.3.1 for nodes with cyclic index k, collecting every such
// node it meets. It reads peers through the sweep's view, so walks that
// cross the same cycle query each member once.
type tableSearch struct {
	n     *Node
	v     peerView
	k     uint8
	found []entry
}

// walk visits cycles outward from at's, clockwise (dir > 0) or
// counter-clockwise, until it finds the member with cyclic index k,
// reaches a cycle stop rejects, or comes back around. Each cycle is
// scanned through inside successors, which run in cyclic-index order,
// so a scan ends as soon as it passes k.
func (ts *tableSearch) walk(at entry, dir int, stop func(a uint32) bool) {
	sp := ts.n.space
	for seen := map[uint32]bool{}; !seen[at.ID.A] && (stop == nil || !stop(at.ID.A)); {
		seen[at.ID.A] = true
		var first *WireState
		for cur := at; ; {
			if cur.ID.K == ts.k {
				ts.found = append(ts.found, cur)
				return
			}
			st := ts.n.read(ts.v, cur)
			if st == nil {
				return
			}
			if first == nil {
				first = st
			}
			next := entryOr(st.InsideR, cur)
			off := sp.ClockwiseCyclic(at.ID.K, next.ID.K)
			if next.ID.A != at.ID.A || off <= sp.ClockwiseCyclic(at.ID.K, cur.ID.K) || off > sp.ClockwiseCyclic(at.ID.K, ts.k) {
				break
			}
			cur = next
		}
		if dir > 0 {
			at = entryOr(first.OutsideR, at)
		} else {
			at = entryOr(first.OutsideL, at)
		}
	}
}

// flippedBlock looks for the cubical neighbour: one route to the flipped
// position f = a⊕2^k, then a walk on each side of f. The route ends on
// the nonempty cycle nearest f, which opens the side of f it lies on;
// its outside neighbour opens the other. Each side stops at its first
// node with cyclic index k, or at a cycle where no such node could beat
// one already found.
func (ts *tableSearch) flippedBlock() {
	n := ts.n
	f := n.id.A ^ 1<<n.id.K
	r, err := n.route(context.Background(), *n.selfEntry(), ids.CycloidID{K: ts.k, A: f}, nil, nil)
	if err != nil {
		return
	}
	anchor := entry{ID: r.Terminal, Addr: r.Addr}
	st := ts.n.read(ts.v, anchor)
	if st == nil {
		return
	}
	cw, ccw := anchor, entryOr(st.OutsideL, anchor)
	if n.space.ClockwiseCycle(anchor.ID.A, f) < n.space.ClockwiseCycle(f, anchor.ID.A) {
		cw, ccw = entryOr(st.OutsideR, anchor), anchor
	}
	stop := func(a uint32) bool {
		at := entry{ID: ids.CycloidID{K: ts.k, A: a}}
		for _, c := range ts.found {
			if !better(n.space, n.id, cubical, at, c) {
				return true
			}
		}
		return false
	}
	ts.walk(cw, +1, stop)
	ts.walk(ccw, -1, stop)
}
