package p2p

import (
	"context"
	"sort"
	"time"

	"cycloid/internal/ids"
)

// Stabilize runs one stabilization round: re-probe suspected addresses
// (so recovered nodes stop being avoided before this round's searches
// run), refresh the leaf sets from the neighbors' neighborhoods,
// re-resolve the cubical and cyclic neighbors with the local-remote
// search — the periodic repair the paper delegates to "system
// stabilization, as in Chord" — and finish with the replication
// anti-entropy pass over the local store.
func (n *Node) Stabilize() {
	if n.isStopped() {
		return
	}
	began := time.Now()
	n.drainSuspects()
	n.refreshLeafSets()
	n.correctOutsideRing()
	n.notifyLeafSet()
	n.RefreshRoutingTable()
	n.syncReplicas()
	n.updateLeafGauges()
	n.tel.stabRounds.Inc()
	elapsed := time.Since(began)
	n.tel.stabDuration.Observe(elapsed.Microseconds())
	n.log.Debug("stabilization round complete", "took", elapsed)
}

// correctOutsideRing runs a Chord-style neighbor correction on the ring
// of cycles. refreshLeafSets picks outside entries from the 1-hop
// neighborhood union only, so after several nearby failures the overlay
// can settle into a ring that is locally stable but globally wrong —
// e.g. two cycles that became adjacent never learn it, and lookups
// between them dead-end at a false local minimum. Following the current
// outside entry's own outside chain toward this node closes such gaps:
// every hop either reaches a strictly nearer live cycle or stops, so
// the walk terminates and each stabilization round tightens the ring
// until it is globally consistent, exactly like Chord's
// successor-pointer correction.
func (n *Node) correctOutsideRing() {
	maxSteps := 4 * n.space.Dim()
	// improve walks cur's chain (via nextOf) adopting strictly nearer
	// cycles under the given closeness order; every adopted entry is
	// state-queried, so the result is verified live.
	improve := func(cur entry, nextOf func(*WireState) *WireEntry, closer func(a, b uint32) bool) entry {
		best := cur
		for step := 0; step < maxSteps; step++ {
			st, err := n.stateOf(cur.Addr)
			if err != nil {
				return best
			}
			best = cur
			w := nextOf(st)
			if w == nil {
				return best
			}
			c := toEntry(*w)
			if c.ID == cur.ID || c.ID == n.id || c.ID.A == n.id.A || !closer(c.ID.A, cur.ID.A) {
				return best
			}
			cur = c
		}
		return best
	}
	n.mu.RLock()
	outL, outR := n.rs.outsideL, n.rs.outsideR
	n.mu.RUnlock()
	if outL != nil && outL.ID != n.id && outL.ID.A != n.id.A {
		better := improve(*outL,
			func(st *WireState) *WireEntry { return st.OutsideR },
			func(a, b uint32) bool { return n.space.ClockwiseCycle(a, n.id.A) < n.space.ClockwiseCycle(b, n.id.A) })
		if better.ID != outL.ID {
			n.mu.Lock()
			n.rs.outsideL = clone(better)
			n.mu.Unlock()
		}
	}
	if outR != nil && outR.ID != n.id && outR.ID.A != n.id.A {
		better := improve(*outR,
			func(st *WireState) *WireEntry { return st.OutsideL },
			func(a, b uint32) bool { return n.space.ClockwiseCycle(n.id.A, a) < n.space.ClockwiseCycle(n.id.A, b) })
		if better.ID != outR.ID {
			n.mu.Lock()
			n.rs.outsideR = clone(better)
			n.mu.Unlock()
		}
	}
}

// notifyLeafSet tells each leaf entry about this node, Chord's notify
// pattern: the receiver adopts the sender wherever it belongs in its own
// leaf sets. This closes one-directional gaps ungraceful failures tear
// open — if A holds B but B lost A, B relearns A from A's notification.
func (n *Node) notifyLeafSet() {
	self := WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
	req := request{Op: "update", Event: "join", Subject: &self}
	n.mu.RLock()
	targets := []*entry{n.rs.insideL, n.rs.insideR, n.rs.outsideL, n.rs.outsideR}
	n.mu.RUnlock()
	sent := map[string]bool{n.Addr(): true}
	for _, e := range targets {
		if e == nil || sent[e.Addr] {
			continue
		}
		sent[e.Addr] = true
		_, _ = n.call(e.Addr, req)
	}
}

// stabilizeLoop drives periodic stabilization until the node stops.
func (n *Node) stabilizeLoop() {
	defer n.wg.Done()
	// Stagger the first round uniformly within the period, as the paper's
	// churn experiment prescribes.
	first := time.Duration(n.rng.Int63n(int64(n.cfg.StabilizeEvery)))
	timer := time.NewTimer(first)
	defer timer.Stop()
	for {
		select {
		case <-n.stopped:
			return
		case <-timer.C:
			n.Stabilize()
			timer.Reset(n.cfg.StabilizeEvery)
		}
	}
}

// refreshLeafSets gathers the neighborhoods of the current routing-state
// entries and recomputes the leaf sets from the union — dead entries drop
// out, nearer live nodes move in. Candidates are liveness-verified before
// adoption so a stale second-hand reference cannot displace a live entry.
func (n *Node) refreshLeafSets() {
	pool, live := n.gatherNeighborhood()
	alive := func(e entry) bool {
		if v, ok := live[e.ID]; ok {
			return v
		}
		_, err := n.call(e.Addr, request{Op: "ping"})
		live[e.ID] = err == nil
		return live[e.ID]
	}
	// pick selects the best live candidate under the given preference.
	pick := func(eligible func(entry) bool, better func(a, b entry) bool) *entry {
		var cands []entry
		for _, e := range pool {
			if e.ID != n.id && eligible(e) {
				cands = append(cands, e)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return better(cands[i], cands[j]) })
		for _, c := range cands {
			if alive(c) {
				e := c
				return &e
			}
		}
		return nil
	}

	sameCycle := func(e entry) bool { return e.ID.A == n.id.A }
	otherCycle := func(e entry) bool { return e.ID.A != n.id.A }
	insideR := pick(sameCycle, func(a, b entry) bool {
		return n.space.ClockwiseCyclic(n.id.K, a.ID.K) < n.space.ClockwiseCyclic(n.id.K, b.ID.K)
	})
	insideL := pick(sameCycle, func(a, b entry) bool {
		return n.space.ClockwiseCyclic(a.ID.K, n.id.K) < n.space.ClockwiseCyclic(b.ID.K, n.id.K)
	})
	outR := pick(otherCycle, func(a, b entry) bool {
		da, db := n.space.ClockwiseCycle(n.id.A, a.ID.A), n.space.ClockwiseCycle(n.id.A, b.ID.A)
		if da != db {
			return da < db
		}
		return a.ID.K > b.ID.K // primary preference within a cycle
	})
	outL := pick(otherCycle, func(a, b entry) bool {
		da, db := n.space.ClockwiseCycle(a.ID.A, n.id.A), n.space.ClockwiseCycle(b.ID.A, n.id.A)
		if da != db {
			return da < db
		}
		return a.ID.K > b.ID.K
	})

	n.mu.Lock()
	defer n.mu.Unlock()
	if insideL == nil || insideR == nil {
		insideL, insideR = n.selfEntry(), n.selfEntry()
	}
	if outL == nil || outR == nil {
		outL, outR = n.selfEntry(), n.selfEntry()
	}
	n.rs.insideL, n.rs.insideR = insideL, insideR
	n.rs.outsideL, n.rs.outsideR = outL, outR
}

// gatherNeighborhood collects this node's routing-state entries plus
// everything in their states, deduplicated, along with a liveness cache
// for the entries it contacted directly.
func (n *Node) gatherNeighborhood() ([]entry, map[ids.CycloidID]bool) {
	n.mu.RLock()
	own := n.entriesLocked()
	n.mu.RUnlock()

	seen := make(map[ids.CycloidID]entry)
	live := make(map[ids.CycloidID]bool)
	add := func(e entry) {
		if e.ID != n.id {
			if _, ok := seen[e.ID]; !ok {
				seen[e.ID] = e
			}
		}
	}
	for _, e := range own {
		if e == nil || e.ID == n.id {
			continue
		}
		if _, done := live[e.ID]; done {
			continue
		}
		st, err := n.stateOf(e.Addr)
		if err != nil {
			live[e.ID] = false
			continue // dead entry: drops out of the pool
		}
		live[e.ID] = true
		add(e.entryWithState(st))
		for _, w := range []*WireEntry{st.InsideL, st.InsideR, st.OutsideL, st.OutsideR, st.Cubical, st.CyclicL, st.CyclicS} {
			if w != nil {
				add(toEntry(*w))
			}
		}
	}
	pool := make([]entry, 0, len(seen))
	for _, e := range seen {
		pool = append(pool, e)
	}
	return pool, live
}

// entryWithState refreshes an entry's address from the peer's own report.
func (e *entry) entryWithState(st *WireState) entry {
	out := *e
	if st.Self.Addr != "" {
		out.Addr = st.Self.Addr
	}
	return out
}

// RefreshRoutingTable re-resolves the cubical and cyclic neighbors with
// the local-remote search of Section 3.3.1: route toward the ideal
// position, then walk outward through adjacent cycles (checking every
// member) until a node with the required cyclic index appears. When the
// search comes up empty (no node with the required cyclic index is
// reachable) a dead incumbent is dropped rather than kept: a stale slot
// costs a timeout on every lookup that tries it, and nothing short of
// this check ever clears it.
func (n *Node) RefreshRoutingTable() {
	if n.id.K == 0 {
		return // k=0 nodes have no cubical or cyclic neighbors
	}
	wantK := n.id.K - 1
	flipped := n.id.A ^ (1 << n.id.K)

	set := func(slot **entry, e entry, ok bool) {
		if ok {
			n.mu.Lock()
			*slot = clone(e)
			n.mu.Unlock()
			return
		}
		n.mu.RLock()
		cur := *slot
		n.mu.RUnlock()
		if cur == nil || cur.ID == n.id {
			return
		}
		if _, err := n.call(cur.Addr, request{Op: "ping"}); err != nil {
			n.mu.Lock()
			if *slot == cur {
				*slot = nil
				n.tel.pruned.Inc()
				n.log.Debug("pruned dead routing entry", "peer", cur.Addr)
			}
			n.mu.Unlock()
		}
	}
	e, ok := n.searchWithK(wantK, ids.CycloidID{K: wantK, A: flipped}, 0)
	set(&n.rs.cubical, e, ok)
	e, ok = n.searchWithK(wantK, ids.CycloidID{K: wantK, A: n.id.A}, +1)
	set(&n.rs.cyclicL, e, ok)
	e, ok = n.searchWithK(wantK, ids.CycloidID{K: wantK, A: n.id.A}, -1)
	set(&n.rs.cyclicS, e, ok)
}

// searchWithK finds a node with the given cyclic index near the ideal
// position: it routes to the node responsible for the ideal ID, then
// walks cycle by cycle (dir > 0 clockwise only, dir < 0 counter-clockwise
// only, dir == 0 alternating) inspecting each cycle's members. The search
// is bounded; stabilization retries periodically.
func (n *Node) searchWithK(wantK uint8, ideal ids.CycloidID, dir int) (entry, bool) {
	route, err := n.route(context.Background(), *n.selfEntry(), ideal, nil, nil)
	if err != nil {
		return entry{}, false
	}
	anchor := entry{ID: route.Terminal, Addr: route.Addr}
	if anchor.ID == n.id {
		anchor = *n.selfEntry()
	}

	maxCycles := 4 * n.space.Dim()
	left, right := anchor, anchor
	for i := 0; i < maxCycles; i++ {
		goRight := dir > 0 || (dir == 0 && i%2 == 0)
		var frontier *entry
		if goRight {
			frontier = &right
		} else {
			frontier = &left
		}
		found, next, ok := n.scanCycle(*frontier, wantK, goRight)
		if found != nil {
			return *found, true
		}
		if !ok {
			return entry{}, false
		}
		*frontier = next
		if left.ID == right.ID && i > 0 {
			return entry{}, false // wrapped around the whole overlay
		}
	}
	return entry{}, false
}

// scanCycle walks the members of the cycle containing at, looking for a
// node with cyclic index wantK; it also returns the primary of the next
// cycle in the walking direction for the outward search.
func (n *Node) scanCycle(at entry, wantK uint8, clockwise bool) (found *entry, next entry, ok bool) {
	cur := at
	for hop := 0; hop <= n.space.Dim(); hop++ {
		if cur.ID.K == wantK {
			e := cur
			return &e, entry{}, true
		}
		st, err := n.stateOfOrLocal(cur)
		if err != nil {
			return nil, entry{}, false
		}
		// Record the outward continuation from the first member we see.
		if hop == 0 {
			if clockwise {
				next = entryOr(st.OutsideR, cur)
			} else {
				next = entryOr(st.OutsideL, cur)
			}
		}
		succ := entryOr(st.InsideR, cur)
		if succ.ID == at.ID || succ.ID == cur.ID {
			break // completed the cycle
		}
		cur = succ
	}
	if next.ID == at.ID || next.ID == (ids.CycloidID{}) && next.Addr == "" {
		return nil, entry{}, false
	}
	return nil, next, true
}

// stateOfOrLocal answers a state query locally when the entry is this
// node itself.
func (n *Node) stateOfOrLocal(e entry) (*WireState, error) {
	if e.ID == n.id {
		return n.wireState(), nil
	}
	return n.stateOf(e.Addr)
}
