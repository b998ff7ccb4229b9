// R-way key replication over the cycle/leaf-set neighborhood, which
// with the peer table's suspicion (p2p/peers.go) makes reads and
// routing survive owner crashes.
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
package p2p

import (
	"context"
	"fmt"
	"slices"

	"cycloid/internal/ids"
	"cycloid/p2p/store"
)

// newer reports whether a should replace b under last-writer-wins:
// higher logical version first, larger writer ID on ties.
func newer(a, b item) bool { return store.Newer(a, b) }

// putLocal merges one replicated copy into the local store, returning
// false when an existing copy is at least as new. The store takes
// it.Val as it is, an empty one as nil: the caller hands over a slice
// nothing else holds or will write, such as one just decoded from a
// frame.
func (n *Node) putLocal(key string, it item) bool {
	if len(it.Val) == 0 {
		it.Val = nil
	}
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
//
// The store takes value as it is, so the caller hands over a slice
// nothing else holds or will write: a decoded request's value, or a
// copy of an API caller's slice (PutAt and storeChain make it), since
// that caller may reuse its buffer as soon as the Put returns.
func (n *Node) putOwner(ctx context.Context, key string, value []byte, st *opTrace) (item, error) {
	n.mu.Lock()
	cur, _ := n.store.Get(key)
	it := item{
		Val: value,
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

// rank orders the distinct members of a leaf neighborhood by closeness
// to kp, in place, keeping the first entry of each ID. It is the one
// ranking behind replica placement (replicaTargets), the scope test
// (redirect) and a read's replica probes, so owner, replicas and
// readers can never disagree on who is closest.
func (n *Node) rank(kp ids.CycloidID, members []entry) []entry {
	out := members[:0]
	for _, e := range members { // e is a copy: out never overtakes the read position
		if slices.ContainsFunc(out, func(o entry) bool { return o.ID == e.ID }) {
			continue
		}
		i := len(out)
		out = append(out, e)
		for ; i > 0 && n.space.Closer(kp, e.ID, out[i-1].ID); i-- {
			out[i] = out[i-1]
		}
		out[i] = e
	}
	return out
}

// neighborhood ranks this node, its leaf entries and extra near kp.
func (n *Node) neighborhood(kp ids.CycloidID, extra ...entry) []entry {
	members := append(make([]entry, 0, 5+len(extra)), *n.selfEntry())
	for _, e := range n.rs.Load().leaves() {
		if e != nil {
			members = append(members, *e)
		}
	}
	return n.rank(kp, append(members, extra...))
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
	out := slices.DeleteFunc(n.neighborhood(kp), func(e entry) bool { return e.ID == n.id })
	return out[:min(len(out), r-1)]
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
		if n.peer(tgt.Addr).busy() {
			n.tel.fanoutSkips.Inc()
			continue
		}
		req := request{Op: "replicate", Key: key, Value: it.Val, Ver: it.Ver, Src: it.Src}
		_ = n.exchange(ctx, tgt, &req, &response{}, st)
	}
}

// mayHold reports whether redirect finds nothing to reject.
func (n *Node) mayHold(kp ids.CycloidID) bool { return n.redirect(kp) == nil }

// redirect returns nil when this node may hold the key. It may when it
// owns the key (its local routing decision terminates for it) or sits
// inside the key's replica scope: among the R members of its own
// neighborhood — itself, its leaf set, plus any extra members the caller
// knows about (e.g. the pushing owner) — closest to the key. The scope
// test is local and approximate, ranked by the same closeness rule the
// owner uses to pick replica targets, so the two views agree wherever
// the neighborhoods overlap. Otherwise it returns the rejection a store
// or replicate gets, with a redirect entry naming the node this one
// would route the key to — tight enough to reject stores that a racing
// join routed to a node that was never near the key.
func (n *Node) redirect(kp ids.CycloidID, extra ...entry) *response {
	s := n.localStep(kp, false, nil)
	if s.Done {
		return nil
	}
	if r := n.cfg.Replicas; r > 1 {
		nb := n.neighborhood(kp, extra...)
		if slices.ContainsFunc(nb[:min(len(nb), r)], func(e entry) bool { return e.ID == n.id }) {
			return nil
		}
	}
	resp := &response{Err: "not owner or replica for key"}
	if len(s.Candidates) > 0 {
		resp.Redirect = &s.Candidates[0]
	}
	return resp
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
	if red := n.redirect(kp, toEntry(req.From)); red != nil {
		return *red
	}
	if n.putLocal(req.Key, item{Val: req.Value, Ver: req.Ver, Src: req.Src}) {
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
