package p2p

import (
	"context"
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
// outside entry's own outside chain back toward this node closes such
// gaps: every hop either reaches a better live entry under the slot
// rule or stops, so the walk terminates and each stabilization round
// tightens the ring until it is globally consistent, exactly like
// Chord's successor-pointer correction. Every adopted entry was
// state-queried, so it is verified live.
func (n *Node) correctOutsideRing() {
	for _, s := range [...]slot{outsideL, outsideR} {
		cur := *n.rs.Load()[s]
		live := cur
		for step := 0; step < 4*n.space.Dim() && n.fits(s, cur); step++ {
			st, err := n.stateOf(context.Background(), cur)
			if err != nil {
				break
			}
			live = cur
			w := st.OutsideL
			if s == outsideL {
				w = st.OutsideR
			}
			if w == nil || !n.better(s, toEntry(*w), cur) {
				break
			}
			cur = toEntry(*w)
		}
		n.offer(live)
	}
}

// notifyLeafSet tells each leaf entry about this node, Chord's notify
// pattern: the receiver adopts the sender wherever it belongs in its own
// leaf sets. This closes one-directional gaps ungraceful failures tear
// open — if A holds B but B lost A, B relearns A from A's notification.
func (n *Node) notifyLeafSet() {
	self := WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
	req := request{Op: "update", Event: "join", Subject: &self}
	sent := map[string]bool{n.Addr(): true}
	for _, e := range n.rs.Load().leaves() {
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
// entries and refills each leaf slot with the best candidate of the union
// under the slot rule — dead entries drop out, nearer live nodes move in.
// Candidates are liveness-verified before adoption so a stale
// second-hand reference cannot displace a live entry.
func (n *Node) refreshLeafSets() {
	pool, live := n.gatherNeighborhood()
	var picked routingState
	for s := range picked.leaves() {
		for {
			best := *n.selfEntry()
			for _, c := range pool {
				if v, known := live[c.ID]; (v || !known) && n.better(slot(s), c, best) {
					best = c
				}
			}
			if _, known := live[best.ID]; !known {
				_, err := n.call(best.Addr, request{Op: "ping"})
				live[best.ID] = err == nil
			}
			if best.ID == n.id || live[best.ID] {
				picked[s] = clone(best)
				break
			}
		}
	}
	n.editRS(func(rs *routingState) { copy(rs.leaves(), picked.leaves()) })
}

// gatherNeighborhood collects this node's routing-state entries plus
// everything in their states, deduplicated, along with a liveness cache
// for the entries it contacted directly.
func (n *Node) gatherNeighborhood() ([]entry, map[ids.CycloidID]bool) {
	seen := make(map[ids.CycloidID]entry)
	live := make(map[ids.CycloidID]bool)
	add := func(e entry) {
		if e.ID != n.id {
			if _, ok := seen[e.ID]; !ok {
				seen[e.ID] = e
			}
		}
	}
	for _, e := range n.rs.Load() {
		if e == nil || e.ID == n.id {
			continue
		}
		if _, done := live[e.ID]; done {
			continue
		}
		st, err := n.stateOf(context.Background(), *e)
		if err != nil {
			live[e.ID] = false
			continue // dead entry: drops out of the pool
		}
		live[e.ID] = true
		self := *e
		if st.Self.Addr != "" {
			self.Addr = st.Self.Addr // the peer's own report of its address
		}
		add(self)
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

// RefreshRoutingTable re-resolves the cubical and cyclic neighbors with
// the local-remote search of Section 3.3.1 and fills each from what it
// found under the slot rule. The cyclic neighbors need no route: they are
// the first nodes with cyclic index k-1 walking outward from this node's
// own cycle in either direction. The cubical neighbor takes one route to
// the flipped position and a walk on both sides of it (see flippedBlock).
// When the search finds no candidate at all a dead incumbent is dropped
// rather than kept: a stale slot costs a timeout on every lookup that
// tries it, and nothing short of this check ever clears it.
func (n *Node) RefreshRoutingTable() {
	if n.id.K == 0 {
		return // k=0 nodes have no cubical or cyclic neighbors
	}
	ts := &tableSearch{n: n, k: n.id.K - 1, states: make(map[ids.CycloidID]*WireState)}
	ts.walk(*n.selfEntry(), +1, nil)
	ts.walk(*n.selfEntry(), -1, nil)
	ts.flippedBlock()
	for _, s := range tableSlots {
		var best *entry
		for i, c := range ts.found {
			if best == nil || n.better(s, c, *best) {
				best = &ts.found[i]
			}
		}
		if best != nil {
			n.editRS(func(rs *routingState) { rs[s] = clone(*best) })
			continue
		}
		cur := n.rs.Load()[s]
		if cur == nil {
			continue
		}
		if _, err := n.call(cur.Addr, request{Op: "ping"}); err != nil {
			n.editRS(func(rs *routingState) {
				if rs[s] == cur {
					rs[s] = nil
					n.tel.pruned.Inc()
					n.log.Debug("pruned dead routing entry", "peer", cur.Addr)
				}
			})
		}
	}
}
