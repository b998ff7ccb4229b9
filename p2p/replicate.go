// R-way key replication over the cycle/leaf-set neighborhood and the
// failure-suspicion machinery that makes reads and routing survive
// owner crashes.
//
// Placement: a key's owner (the node the paper's placement rule
// selects) keeps the authoritative copy and fans it out to its R-1
// closest leaf-set neighbors — the same nodes that take over ownership
// when the owner disappears, so the crash successor of a key is, by
// construction, already holding a replica. Every copy carries a per-key
// logical version and the linear ID of the node that assigned it;
// conflicts resolve last-writer-wins by version, tie-broken by the
// larger source ID, which makes concurrent writes during ownership
// transitions converge to a single value.
//
// Repair: stabilization runs an anti-entropy pass (syncReplicas) that
// re-fans owned keys to the current replica targets after membership
// change, promotes a replica to owner when the owner crashed (the new
// closest node simply finds itself responsible and keeps the copy), and
// garbage-collects copies a node should no longer hold — a copy is
// dropped only after the owner acknowledged holding at least the same
// version and reported a replica set that excludes this node, so
// garbage collection can never be the step that loses the last copy.
//
// Suspicion: addresses found dead during routes accumulate strikes in a
// shared list. One strike demotes a candidate to last place in the
// dial order; suspectDrop strikes removes it from consideration until
// stabilization re-probes the address and either clears it (recovered)
// or leaves it listed (still dead, and by then also pruned from routing
// tables). Repeated lookups therefore stop paying timeouts for the
// same corpse after at most suspectDrop encounters.
package p2p

import (
	"context"
	"fmt"
	"sort"

	"cycloid/internal/ids"
	"cycloid/p2p/store"
)

// suspectDrop is the strike count at which a suspected address is
// skipped outright by candidate ordering instead of merely tried last.
const suspectDrop = 2

// newer reports whether a should replace b under last-writer-wins:
// higher logical version first, larger writer ID on ties.
func newer(a, b item) bool { return store.Newer(a, b) }

// putLocal merges one replicated copy into the local store, returning
// false when an existing copy is at least as new.
func (n *Node) putLocal(key string, it item) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur, ok := n.store.Get(key); ok && !newer(it, cur) {
		n.tel.lwwRejects.Inc()
		return false
	}
	n.store.Put(key, it)
	n.updateStoreGaugeLocked()
	return true
}

// syncStore makes every applied write durable before an acknowledgement
// leaves the node — the durability half of the ack contract. A memory
// backend returns immediately; the durable backend group-commits, so
// concurrent acks share one fsync. The error is the caller's to
// surface: an un-synced write must not be acked as stored.
func (n *Node) syncStore() error {
	if err := n.store.Sync(); err != nil {
		n.log.Error("store sync failed on ack path", "err", err)
		return fmt.Errorf("p2p: store sync: %w", err)
	}
	return nil
}

// putOwner performs the owner side of a write: assign the next logical
// version under the lock, make the write durable, and fan the copy out
// to the replica set. The sync precedes both the fan-out and the
// caller's acknowledgement, so a write is on disk before any node —
// local or remote — treats it as stored.
func (n *Node) putOwner(ctx context.Context, key string, value []byte, st *opTrace) (item, error) {
	n.mu.Lock()
	cur, _ := n.store.Get(key)
	it := item{
		Val: append([]byte(nil), value...),
		Ver: cur.Ver + 1,
		Src: n.space.Linear(n.id),
	}
	n.store.Put(key, it)
	n.updateStoreGaugeLocked()
	n.mu.Unlock()
	if err := n.syncStoreTimed(st); err != nil {
		return it, err
	}
	n.fanOut(ctx, key, it, st)
	return it, nil
}

// replicaTargets returns the R-1 distinct leaf-set neighbors closest to
// the key — by the placement rule, the nodes that inherit the key if
// this owner crashes, so the crash successor holds a replica by
// construction. Empty when replication is off (R = 1).
func (n *Node) replicaTargets(kp ids.CycloidID) []entry {
	r := n.cfg.Replicas
	if r <= 1 {
		return nil
	}
	seen := map[ids.CycloidID]bool{n.id: true}
	var cands []entry
	for _, e := range n.rs.Load().leaves() {
		if e != nil && !seen[e.ID] {
			seen[e.ID] = true
			cands = append(cands, *e)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return n.space.Closer(kp, cands[i].ID, cands[j].ID) })
	if len(cands) > r-1 {
		cands = cands[:r-1]
	}
	return cands
}

// fanOut pushes one item to every replica target, best effort: an
// unreachable target is repaired by the next anti-entropy pass. A
// target inside its overload window is skipped the same way — pushing
// at a shedding node would only be shed again, and anti-entropy repairs
// it once the window passes.
func (n *Node) fanOut(ctx context.Context, key string, it item, st *opTrace) {
	targets := n.replicaTargets(n.keyPoint(key))
	n.tel.fanout.Observe(int64(len(targets)))
	for _, tgt := range targets {
		if n.isOverloaded(tgt.Addr) {
			n.tel.fanoutSkips.Inc()
			continue
		}
		req := request{Op: "replicate", Key: key, Value: it.Val, Ver: it.Ver, Src: it.Src}
		sid, t0 := st.startCall(&req)
		_, err := n.callCtx(ctx, tgt.Addr, req)
		st.endCall(sid, t0, "replicate", tgt.Addr, err)
	}
}

// inScope reports whether this node sits among the R members of its own
// neighborhood — itself, its leaf set, plus any extra IDs the caller
// knows about (e.g. the pushing owner) — closest to the key. The test
// is local and approximate, ranked by the same closeness rule the owner
// uses to pick replica targets, so the two views agree wherever the
// neighborhoods overlap.
func (n *Node) inScope(kp ids.CycloidID, extra ...ids.CycloidID) bool {
	r := n.cfg.Replicas
	if r <= 1 {
		return false
	}
	seen := map[ids.CycloidID]bool{n.id: true}
	cands := []ids.CycloidID{n.id}
	for _, e := range n.rs.Load().leaves() {
		if e != nil && !seen[e.ID] {
			seen[e.ID] = true
			cands = append(cands, e.ID)
		}
	}
	for _, id := range extra {
		if !seen[id] {
			seen[id] = true
			cands = append(cands, id)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return n.space.Closer(kp, cands[i], cands[j]) })
	if len(cands) > r {
		cands = cands[:r]
	}
	for _, id := range cands {
		if id == n.id {
			return true
		}
	}
	return false
}

// mayHold reports whether this node is the key's owner (its local
// routing decision terminates for the key) or inside its replica scope
// — tight enough to reject stores that a racing join routed to a node
// that was never near the key.
func (n *Node) mayHold(kp ids.CycloidID) bool {
	return n.localStep(kp, false, nil).Done || n.inScope(kp)
}

// handleReplicate applies one pushed copy. A receiver outside the key's
// replica scope rejects with a redirect so a stale route cannot strand
// the value; otherwise the copy merges last-writer-wins and the
// response reports the receiver's replica set for the sender's
// garbage-collection decision.
func (n *Node) handleReplicate(req request, st *opTrace) response {
	kp := n.keyPoint(req.Key)
	// The sender (normally the key's owner) counts toward the scope
	// ranking even when this node's leaf set has not adopted it yet.
	if !n.localStep(kp, false, nil).Done && !n.inScope(kp, toEntry(req.From).ID) {
		resp := response{Err: "not owner or replica for key"}
		if s := n.localStep(kp, false, nil); len(s.Candidates) > 0 {
			resp.Redirect = &s.Candidates[0]
		}
		return resp
	}
	if n.putLocal(req.Key, item{Val: append([]byte(nil), req.Value...), Ver: req.Ver, Src: req.Src}) {
		// The owner treats this response as the replica's ack; the copy
		// must be durable here or an owner-side GC decision could trust a
		// replica that a crash would erase.
		if err := n.syncStoreTimed(st); err != nil {
			return response{Err: err.Error()}
		}
	}
	n.mu.RLock()
	cur, _ := n.store.Get(req.Key)
	n.mu.RUnlock()
	out := response{Ver: cur.Ver, Found: true}
	out.Replicas = append(out.Replicas, wireEntry(*n.selfEntry()))
	for _, t := range n.replicaTargets(kp) {
		out.Replicas = append(out.Replicas, wireEntry(t))
	}
	return out
}

// syncReplicas is stabilization's anti-entropy pass over the local
// store, in deterministic key order:
//
//   - keys this node owns are re-fanned to the current replica targets,
//     so membership change (a join rotating the leaf set, a crashed
//     replica) restores the replication factor;
//   - keys this node does not own are pushed to the routed owner — which
//     promotes a replica to owner after a crash, since the new closest
//     node finds itself responsible and keeps its copy — and then
//     garbage-collected locally, but only once the owner acknowledged a
//     version at least as new and reported a replica set that excludes
//     this node.
//
// An unreachable owner, a rejected push, or a route that dead-ends all
// leave the copy in place for the next round: durability errs on the
// side of holding too much.
func (n *Node) syncReplicas() {
	keys := n.Keys() // sorted: deterministic dial order for replayable fault schedules
	for _, k := range keys {
		n.mu.RLock()
		it, ok := n.store.Get(k)
		n.mu.RUnlock()
		if !ok {
			continue
		}
		kp := n.keyPoint(k)
		if n.localStep(kp, false, nil).Done {
			// Owning a copy some other node wrote means this node inherited
			// the key — the crash-successor promotion the replication design
			// relies on. Count it once per copy. The mark is memory-only:
			// a rebooted node that still merits the promotion recounts it.
			if it.Src != n.space.Linear(n.id) && !it.Promoted {
				n.mu.Lock()
				counted := n.store.SetPromoted(k, it.Ver)
				n.mu.Unlock()
				if counted {
					n.tel.promotions.Inc()
					n.log.Info("replica promoted to owned copy", "key", k, "ver", it.Ver)
				}
			}
			n.fanOut(context.Background(), k, it, nil)
			continue
		}
		r, err := n.route(context.Background(), *n.selfEntry(), kp, nil, nil)
		if err != nil || r.Terminal == n.id {
			continue // owner unreachable: keep the copy
		}
		n.tel.antiEntropy.Inc()
		resp, err := n.call(r.Addr, request{Op: "replicate", Key: k, Value: it.Val, Ver: it.Ver, Src: it.Src})
		if err != nil {
			continue
		}
		keep := resp.Ver < it.Ver
		for _, w := range resp.Replicas {
			if toEntry(w).ID == n.id {
				keep = true
			}
		}
		if !keep {
			n.mu.Lock()
			if cur, ok := n.store.Get(k); ok && !newer(cur, it) {
				// The owner holds >= this version elsewhere. On a durable
				// backend the delete is a tombstone, so a reboot cannot
				// resurrect a copy the owner stopped counting on.
				n.store.Delete(k)
				n.tel.replicaGC.Inc()
				n.updateStoreGaugeLocked()
			}
			n.mu.Unlock()
		}
	}
}

// suspect records one failed contact with an address. Strikes accumulate
// until the address is skipped by candidate ordering; any successful
// exchange (callCtx) or stabilization re-probe clears them.
func (n *Node) suspect(addr string) {
	n.smu.Lock()
	if n.suspects == nil {
		n.suspects = make(map[string]int)
	}
	if n.suspects[addr] < suspectDrop {
		n.suspects[addr]++
	}
	strikes := n.suspects[addr]
	// Safety valve: a long-lived node that met many corpses must not pin
	// memory forever; drop everything and re-learn.
	if len(n.suspects) > 256 {
		n.suspects = make(map[string]int)
	}
	n.tel.suspectsGauge.Set(int64(len(n.suspects)))
	n.smu.Unlock()
	n.log.Debug("suspected address", "peer", addr, "strikes", strikes)
}

func (n *Node) unsuspect(addr string) {
	n.smu.Lock()
	delete(n.suspects, addr)
	n.tel.suspectsGauge.Set(int64(len(n.suspects)))
	n.smu.Unlock()
}

// strikesOf returns the current strike count for an address.
func (n *Node) strikesOf(addr string) int {
	n.smu.Lock()
	s := n.suspects[addr]
	n.smu.Unlock()
	return s
}

// drainSuspects re-probes every suspected address once per
// stabilization round: a recovered node is cleared immediately (the
// ping's successful exchange unsuspects it), a still-dead one stays
// listed so candidate ordering keeps avoiding it while the same round's
// leaf-set refresh and routing-table search prune its entries.
func (n *Node) drainSuspects() {
	n.smu.Lock()
	addrs := make([]string, 0, len(n.suspects))
	for a := range n.suspects {
		addrs = append(addrs, a)
	}
	n.smu.Unlock()
	sort.Strings(addrs) // deterministic probe order for seeded fabrics
	for _, a := range addrs {
		if _, err := n.call(a, request{Op: "ping"}); err == nil {
			n.tel.suspectsCleared.Inc() // the exchange itself unsuspected it
			n.log.Debug("suspect recovered", "peer", a)
		}
	}
}
