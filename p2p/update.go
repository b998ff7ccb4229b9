package p2p

import "slices"

// handleUpdate applies a membership notification (Section 3.3): joiners
// notify their inside leaf set (and, when they are primaries, the outside
// leaf set, whose members pass the message around their local cycle);
// leavers do the same carrying their final state so holders can splice
// around them. Cubical and cyclic neighbors are deliberately NOT repaired
// here — that is stabilization's job, exactly as in the paper.
func (n *Node) handleUpdate(req request) {
	if req.Subject == nil {
		return
	}
	subj := toEntry(*req.Subject)
	switch req.Event {
	case "join":
		n.offer(subj)
	case "leave":
		if req.Departed != nil {
			n.applyLeave(subj, req.Departed)
		}
	default:
		return
	}
	if req.Propagate {
		n.propagate(req)
	}
}

// applyLeave splices this node's leaf sets around a gracefully departing
// node: the slots that named the leaver empty, and the leaver's own leaf
// entries — its final state — are offered in its place.
func (n *Node) applyLeave(s entry, st *WireState) {
	cands := slices.DeleteFunc(leafEntries(st), func(e entry) bool { return e.ID == s.ID })
	n.editRS(func(rs *routingState) {
		for i, e := range rs.leaves() {
			if e.ID == s.ID {
				rs[i] = n.selfEntry()
			}
		}
		n.place(rs, cands)
	})
	// Cubical/cyclic neighbors referencing the leaver stay stale: the
	// leaver has no incoming-connection knowledge (Section 3.3.2).
}

// selfEntry returns a fresh self-reference slot.
func (n *Node) selfEntry() *entry {
	return &entry{ID: n.id, Addr: n.Addr()}
}

// propagate forwards a notification around the local cycle via the inside
// successor, as the paper's join/leave fan-out prescribes, stopping at
// the origin or when the TTL runs out.
func (n *Node) propagate(req request) {
	if req.TTL <= 0 {
		return
	}
	next := n.rs.Load()[insideR]
	if next == nil || next.ID == n.id {
		return
	}
	if req.Origin == nil {
		self := WireEntry{K: n.id.K, A: n.id.A, Addr: n.Addr()}
		req.Origin = &self
	} else if next.ID == toEntry(*req.Origin).ID {
		return
	}
	req.TTL--
	_, _ = n.call(next.Addr, req) // best effort; stabilization mops up
}
