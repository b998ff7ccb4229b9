package p2p

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"time"

	"cycloid/internal/ids"
)

// Stabilize runs one stabilization round: re-probe suspected addresses
// (so recovered nodes stop being avoided before this round's searches
// run), refresh the leaf sets from the neighbors' neighborhoods, notify
// the leaves that would adopt this node, re-resolve the cubical and
// cyclic neighbors with the local-remote search — the periodic repair
// the paper delegates to "system stabilization, as in Chord" — and
// finish with the replication anti-entropy pass over the local store.
// The repair steps read peers through one view of the round.
func (n *Node) Stabilize() {
	if n.isStopped() {
		return
	}
	began := time.Now()
	n.drainSuspects()
	v := peerView{}
	n.refreshLeafSets(v)
	n.notifyLeafSet(v)
	n.refreshRoutingTable(v)
	n.syncReplicas()
	n.updateLeafGauges()
	n.tel.stabRounds.Inc()
	elapsed := time.Since(began)
	n.tel.stabDuration.Observe(elapsed.Microseconds())
	n.log.Debug("stabilization round complete", "took", elapsed)
}

// peerView is one stabilization round's view of its peers: each peer's
// state by node ID, nil for a peer that failed this round. Every repair
// step reads peers through it (read), so a peer is queried once a round
// unless a step changes it and forgets it. This node's own state is
// never memoized: it changes during the round.
type peerView map[ids.CycloidID]*WireState

// read returns e's state as round v sees it, querying it on first use,
// or nil if e is dead. A shed (busy) reply proves the peer alive, as a
// ping would, but tells nothing of its entries: it reads as a state
// naming only the peer.
func (n *Node) read(v peerView, e entry) *WireState {
	if e.ID == n.id {
		return n.wireState()
	}
	st, ok := v[e.ID]
	if !ok {
		var err error
		var busy *BusyError
		if st, err = n.stateOf(context.Background(), e); errors.As(err, &busy) {
			st = &WireState{Self: wireEntry(e)}
		}
		v[e.ID] = st
	}
	return st
}

// notifyLeafSet sends an update naming this node to each leaf whose
// state shows it would adopt this node under the slot rule: Chord's
// notify pattern, without the updates a leaf would ignore. It closes
// one-directional gaps ungraceful failures tear open — if A holds B but
// B lost A, B relearns A from A's notification. A notified leaf drops
// out of the view, so later steps read its new state.
func (n *Node) notifyLeafSet(v peerView) {
	me := *n.selfEntry()
	req := request{Op: "update", Event: "join", Subject: &WireEntry{K: me.ID.K, A: me.ID.A, Addr: me.Addr}}
	done := map[ids.CycloidID]bool{n.id: true}
	for _, e := range n.rs.Load().leaves() {
		if done[e.ID] {
			continue
		}
		done[e.ID] = true
		if st := n.read(v, *e); st == nil || !adopts(n.space, st, me) {
			continue
		}
		_, _ = n.call(e.Addr, req)
		delete(v, e.ID)
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

// refreshLeafSets refills each leaf slot with the best candidate under
// the slot rule that the view finds live: dead entries drop out, nearer
// live nodes move in, and a stale second-hand reference cannot displace
// a live entry. The pool starts as this node's entries and everything in
// their states, plus what the previous round gathered: a node whose
// entries all died since still reaches the nodes around it, instead of
// falling back to itself in every slot while its neighbours close the
// ring without it. Each adoption adds the adopted node's state, and the
// pick repeats until no slot changes, for at most 4d rounds. That is the
// Chord-style correction of the ring of cycles: the 1-hop neighbourhood
// alone can settle into a ring that is locally stable but globally
// wrong (two cycles that became adjacent never learn it), while an
// adopted outside leaf's own entries lead on toward nearer cycles.
func (n *Node) refreshLeafSets(v peerView) {
	var pool []entry
	gather := func(e entry) {
		if st := n.read(v, e); e.ID != n.id && st != nil {
			pool = append(pool, entry{ID: e.ID, Addr: cmp.Or(st.Self.Addr, e.Addr)}) // the peer's own report of its address
			for _, w := range wireSlots(st) {
				if w != nil {
					pool = append(pool, toEntry(*w))
				}
			}
		}
	}
	for _, e := range n.rs.Load() {
		if e != nil {
			gather(*e) // a dead entry drops out of the pool
		}
	}
	gathered := slices.Clip(pool)
	if last := n.nbhd.Swap(&gathered); last != nil {
		pool = append(gathered, *last...)
	}
	picked := *n.rs.Load()
	for round, changed := 0, true; changed && round < 4*n.space.Dim(); round++ {
		changed = false
		for s, cur := range picked.leaves() {
			if best := n.pickLive(v, slot(s), pool); best != *cur {
				picked[s], changed = clone(best), true
				gather(best)
			}
		}
	}
	n.editRS(func(rs *routingState) { copy(rs.leaves(), picked.leaves()) })
}

// pickLive returns the best candidate of pool for slot s that round v
// finds live, or this node. A node the pool repeats never beats itself.
func (n *Node) pickLive(v peerView, s slot, pool []entry) entry {
	for {
		best := *n.selfEntry()
		for _, c := range pool {
			if st, read := v[c.ID]; (!read || st != nil) && better(n.space, n.id, s, c, best) {
				best = c
			}
		}
		if n.read(v, best) != nil {
			return best
		}
	}
}

// refreshRoutingTable re-resolves the cubical and cyclic neighbors with
// the local-remote search of Section 3.3.1 and fills each from what it
// found under the slot rule. The cyclic neighbors need no route: they are
// the first nodes with cyclic index k-1 walking outward from this node's
// own cycle in either direction. The cubical neighbor takes one route to
// the flipped position and a walk on both sides of it (see flippedBlock).
// When the search finds no candidate at all a dead incumbent is dropped
// rather than kept: a stale slot costs a timeout on every lookup that
// tries it, and nothing short of this check ever clears it.
func (n *Node) refreshRoutingTable(v peerView) {
	if n.id.K == 0 {
		return // k=0 nodes have no cubical or cyclic neighbors
	}
	ts := &tableSearch{n: n, v: v, k: n.id.K - 1}
	ts.walk(*n.selfEntry(), +1, nil)
	ts.walk(*n.selfEntry(), -1, nil)
	ts.flippedBlock()
	for _, s := range tableSlots {
		var best *entry
		for i, c := range ts.found {
			if best == nil || better(n.space, n.id, s, c, *best) {
				best = &ts.found[i]
			}
		}
		if best != nil {
			n.editRS(func(rs *routingState) { rs[s] = clone(*best) })
			continue
		}
		cur := n.rs.Load()[s]
		if cur == nil || n.read(v, *cur) != nil {
			continue
		}
		n.editRS(func(rs *routingState) {
			if rs[s] == cur {
				rs[s] = nil
				n.tel.pruned.Inc()
				n.log.Debug("pruned dead routing entry", "peer", cur.Addr)
			}
		})
	}
}
