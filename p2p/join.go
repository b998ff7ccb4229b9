package p2p

import (
	"context"
	"fmt"
	"sort"

	"cycloid/internal/ids"
)

// Join enters an existing overlay through any live member, following
// Section 3.3.1: route a join message to the node Z numerically closest
// to this node's ID, derive the leaf sets from Z's neighborhood,
// initialize the routing table with the local-remote search, notify the
// inside leaf set (and, when this node becomes a primary, the adjacent
// cycles), and reclaim the keys this node is now responsible for.
func (n *Node) Join(bootstrap string) error {
	if n.isStopped() {
		return ErrStopped
	}
	// Locate Z through the bootstrap node.
	boot, err := n.stateOf(context.Background(), addrOnly(bootstrap))
	if err != nil {
		return fmt.Errorf("p2p: join: bootstrap: %w", err)
	}
	if toEntry(boot.Self).ID == n.id {
		return fmt.Errorf("p2p: join: ID collision with bootstrap node %v", n.id)
	}
	route, err := n.route(context.Background(), toEntry(boot.Self), n.id, nil, nil)
	if err != nil {
		return fmt.Errorf("p2p: join: locating closest node: %w", err)
	}
	if route.Terminal == n.id {
		return fmt.Errorf("p2p: join: ID collision at %v", n.id)
	}
	zst, err := n.stateOf(context.Background(), addrOnly(route.Addr))
	if err != nil {
		return fmt.Errorf("p2p: join: fetching closest node state: %w", err)
	}

	n.deriveLeafSets(zst)
	n.RefreshRoutingTable()
	n.announce("join", nil)
	n.reclaimKeys()
	n.updateLeafGauges()
	n.log.Info("joined overlay", "via", bootstrap, "closest", route.Terminal.String(),
		"hops", route.Hops, "timeouts", route.Timeouts)
	return nil
}

// deriveLeafSets builds this node's leaf sets from the closest node Z's
// neighborhood (Section 3.3.1): Z, Z's four leaf entries and — when this
// node opens a cycle of its own — the primary of Z's cycle are offered
// to the slot rule.
func (n *Node) deriveLeafSets(z *WireState) {
	zself := toEntry(z.Self)
	cands := append([]entry{zself}, leafEntries(z)...)
	if zself.ID.A != n.id.A {
		cands = append(cands, n.primaryOf(zself, z))
	}
	n.offer(cands...)
}

// primaryOf walks Z's cycle through inside successors, which run in
// cyclic-index order, up to its primary (largest cyclic index), at most
// d hops. A failed query ends the walk early: stabilization refines.
func (n *Node) primaryOf(z entry, st *WireState) entry {
	for hop := 0; hop < n.space.Dim(); hop++ {
		next := entryOr(st.InsideR, z)
		if next.ID.K <= z.ID.K {
			break
		}
		z = next
		var err error
		if st, err = n.stateOf(context.Background(), addrOnly(z.Addr)); err != nil {
			break
		}
	}
	return z
}

// announce runs the notification fan-out: inside leaf set always; outside
// leaf set (with cycle propagation) when this node is the primary of its
// cycle. For leaves the departing state rides along so receivers can
// splice.
func (n *Node) announce(event string, departed *WireState) {
	self := WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
	req := request{Op: "update", Event: event, Subject: &self, Departed: departed}

	rs := n.rs.Load()
	inside, outside := rs[insideL:outsideL], rs[outsideL:cubical]
	isPrimary := rs[insideR].ID == n.id || rs[insideR].ID.K < n.id.K

	sent := map[ids.CycloidID]bool{n.id: true}
	for _, e := range inside {
		if e != nil && !sent[e.ID] {
			sent[e.ID] = true
			_, _ = n.call(e.Addr, req)
		}
	}
	if isPrimary {
		preq := req
		preq.Propagate = true
		preq.TTL = n.space.Dim()
		for _, e := range outside {
			if e != nil && !sent[e.ID] {
				sent[e.ID] = true
				_, _ = n.call(e.Addr, preq)
			}
		}
	}
}

// reclaimKeys pulls over the stored items this freshly joined node is now
// responsible for, from the neighbors that held them.
func (n *Node) reclaimKeys() {
	seen := map[ids.CycloidID]bool{n.id: true}
	for _, e := range n.rs.Load().leaves() {
		if e == nil || seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		// One reply is one page of a frame's worth of items; a holder
		// with more sets Found, and the next request asks for the keys
		// after the page's last one.
		var from string
		for {
			resp, err := n.call(e.Addr, request{Op: "reclaim", Key: from})
			if err != nil {
				break
			}
			last := from
			for k, w := range resp.Items {
				n.putLocal(k, item{Val: append([]byte(nil), w.V...), Ver: w.Ver, Src: w.Src})
				last = max(last, k)
			}
			if !resp.Found {
				break
			}
			from = last + "\x00" // the least key after last
		}
	}
	// Reclaimed keys are this node's responsibility now; on a durable
	// backend, persist them before the join settles — the previous
	// holders may garbage-collect their copies on the strength of this
	// node holding them. A failed sync only logs: the copies still exist
	// upstream until the owner acks them during anti-entropy.
	if err := n.store.Sync(); err != nil {
		n.log.Error("sync after key reclaim failed", "err", err)
	}
}

// Leave departs gracefully: notify the inside leaf set (and the adjacent
// cycles when this node is a primary), hand the stored keys to their new
// owners, and stop serving. Nodes holding this node as a cubical or
// cyclic neighbor are not notified — their stale entries cost timeouts
// until stabilization, exactly as in the paper.
func (n *Node) Leave() error {
	if n.isStopped() {
		return ErrStopped
	}
	st := n.wireState()
	n.mu.RLock()
	keys := n.store.Len()
	n.mu.RUnlock()
	n.log.Info("leaving overlay", "keys", keys)
	n.announce("leave", st)
	n.handoffKeys()
	return n.Close()
}

// handoffKeys transfers every stored item to its new owner. By the time
// this runs the departure notifications have spliced this node out of its
// neighbors' leaf sets, so a lookup started at a leaf neighbor resolves
// each key's new owner; if a stale entry still routes back here, the item
// falls back to the leaf neighbor closest to the key. Keys and batches
// are processed in sorted order so the sequence of network operations —
// and therefore any deterministic fault schedule a test transport
// replays against it — is reproducible; a failed delivery is retried
// against every remaining live leaf neighbor before the batch is given
// up, so a lossy link alone cannot destroy data.
func (n *Node) handoffKeys() {
	n.mu.Lock()
	items := make(map[string]item, n.store.Len())
	n.store.Range(func(k string, it item) bool {
		items[k] = it
		return true
	})
	// Drain the local store: the departing node's copies move to their
	// new owners. On a durable backend each delete is a tombstone, so a
	// later reboot of this data directory comes back empty-handed
	// instead of resurrecting keys that were handed off.
	for k := range items {
		n.store.Delete(k)
	}
	n.updateStoreGaugeLocked()
	n.mu.Unlock()

	cands := n.rs.Load().leaves()
	var liveStart *entry
	for _, e := range cands {
		if e != nil && e.ID != n.id {
			if _, err := n.call(e.Addr, request{Op: "ping"}); err == nil {
				liveStart = e
				break
			}
		}
	}
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	batches := make(map[string][]string) // addr -> its keys, sorted
	for _, k := range keys {
		kp := n.keyPoint(k)
		var dest *entry
		if liveStart != nil {
			if r, err := n.route(context.Background(), *liveStart, kp, nil, nil); err == nil && r.Terminal != n.id {
				dest = &entry{ID: r.Terminal, Addr: r.Addr}
			}
		}
		if dest == nil {
			// Fallback: the leaf neighbor closest to the key.
			for _, e := range cands {
				if e == nil || e.ID == n.id {
					continue
				}
				if dest == nil || n.space.Closer(kp, e.ID, dest.ID) {
					dest = e
				}
			}
		}
		if dest == nil {
			continue // last node standing: the data dies with the overlay
		}
		batches[dest.Addr] = append(batches[dest.Addr], k)
	}
	addrs := make([]string, 0, len(batches))
	for a := range batches {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		// The routed owner is the preferred target; any live leaf
		// neighbor is an acceptable alternate (a key parked off its
		// true owner is pushed home by the next stabilization round's
		// key repair). A lossy link drops individual dials, so each
		// target gets several passes before the batch is given up —
		// data must outlive transient loss.
		targets := []string{addr}
		for _, e := range cands {
			if e != nil && e.ID != n.id && e.Addr != addr {
				targets = append(targets, e.Addr)
			}
		}
		// A batch larger than a frame goes as several, each under the cap.
		for rest := batches[addr]; len(rest) > 0; {
			m, _ := n.transferPage(rest, func(k string) []byte { return items[k].Val })
			batch := make(map[string]WireItem, m)
			for _, k := range rest[:m] {
				it := items[k]
				batch[k] = WireItem{V: it.Val, Ver: it.Ver, Src: it.Src}
			}
			rest = rest[m:]
			delivered := false
			for pass := 0; pass < 4 && !delivered; pass++ {
				for _, t := range targets {
					if _, err := n.call(t, request{Op: "handoff", Items: batch}); err == nil {
						delivered = true
						break
					}
				}
			}
		}
	}
}

// transferSlack is the room a key transfer (a handoff request, a
// reclaim reply) leaves in its frame for the envelope and the message's
// fields other than its items.
const transferSlack = 1 << 10

// transferPage returns how many of keys, from the front, one key
// transfer carries: as many as fit in a frame, and at least one. fits
// reports that they do fit, which a lone item too large for any frame
// does not. val returns a key's value.
func (n *Node) transferPage(keys []string, val func(string) []byte) (m int, fits bool) {
	used := 0
	for i, k := range keys {
		// An item's encoding: key, presence byte, value, version, source.
		used += 4 + len(k) + 1 + 4 + len(val(k)) + 16
		if used > n.MaxFrame()-transferSlack {
			return max(i, 1), i > 0
		}
	}
	return len(keys), true
}

func entryOr(w *WireEntry, fallback entry) entry {
	if w == nil {
		return fallback
	}
	return toEntry(*w)
}

func clone(e entry) *entry {
	c := e
	return &c
}
