// The peer table: one record per address, of what failed and shed
// contacts taught this node about it.
//
// Suspicion: a failed contact adds a strike. One strike demotes a
// candidate to last place in the dial order; suspectDrop strikes remove
// it from consideration until stabilization re-probes the address and
// either clears it (recovered) or leaves it listed (still dead, and by
// then also pruned from routing tables). Repeated lookups therefore stop
// paying timeouts for the same corpse after at most suspectDrop
// encounters. Any completed exchange clears the strikes. A busy reply
// opens an overload window instead (softDemote; see p2p/retry.go).
package p2p

import (
	"maps"
	"sort"
	"time"
)

// suspectDrop is the strike count at which a suspected address is
// skipped outright by candidate ordering instead of merely tried last.
const suspectDrop = 2

// peerHealth is the peer table's record of one address.
type peerHealth struct {
	strikes   int       // failed contacts since the last completed exchange
	busyUntil time.Time // end of the soft-demotion window; zero when none
}

// dead reports a known corpse, skipped outright.
func (h peerHealth) dead() bool { return h.strikes >= suspectDrop }

// busy reports whether the peer is inside its soft-demotion window.
func (h peerHealth) busy() bool { return !h.busyUntil.IsZero() && !time.Now().After(h.busyUntil) }

// demoted reports a peer tried only after every clean candidate failed.
func (h peerHealth) demoted() bool { return h.strikes > 0 || h.busy() }

// peer returns addr's record from the published table; a healthy peer
// has the zero record.
func (n *Node) peer(addr string) peerHealth { return (*n.peers.Load())[addr] }

// editPeer publishes a copy of the peer table with addr's record changed
// by edit, and returns the new record. The copy keeps only records with
// something in them: strikes, or a window not yet over. Safety valve: a
// long-lived node that met many corpses or shedding peers must not pin
// memory forever, so a table past 256 records is dropped and re-learned.
func (n *Node) editPeer(addr string, edit func(h *peerHealth)) peerHealth {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	old := *n.peers.Load()
	h := old[addr]
	edit(&h)
	next := map[string]peerHealth{}
	if len(old) < 256 {
		maps.Copy(next, old)
	}
	next[addr] = h
	suspected := 0
	for a, o := range next {
		if !o.demoted() {
			delete(next, a)
		} else if o.strikes > 0 {
			suspected++
		}
	}
	n.peers.Store(&next)
	n.tel.suspectsGauge.Set(int64(suspected))
	return h
}

// suspect records one failed contact with an address.
func (n *Node) suspect(addr string) {
	h := n.editPeer(addr, func(h *peerHealth) { h.strikes = min(h.strikes+1, suspectDrop) })
	n.log.Debug("suspected address", "peer", addr, "strikes", h.strikes)
}

// softDemote routes around an overloaded peer for roughly its
// retry-after window: candidate ordering treats it like a one-strike
// suspect (demoted behind clean candidates, tried only when nothing
// else works) without adding suspicion strikes, so overload shows up in
// routing and telemetry as its own condition, distinct from crash.
func (n *Node) softDemote(addr string, retryAfter time.Duration) {
	until := time.Now().Add(max(retryAfter, overloadFloor))
	n.editPeer(addr, func(h *peerHealth) { h.busyUntil = until })
	n.tel.softDemotions.Inc()
}

// drainSuspects re-probes every suspected address once per
// stabilization round: a recovered node is cleared immediately (the
// ping's completed exchange unsuspects it), a still-dead one stays
// listed so candidate ordering keeps avoiding it while the same round's
// leaf-set refresh and routing-table search prune its entries.
func (n *Node) drainSuspects() {
	var addrs []string
	for a, h := range *n.peers.Load() {
		if h.strikes > 0 {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs) // deterministic probe order for seeded fabrics
	for _, a := range addrs {
		if _, err := n.call(a, request{Op: "ping"}); err == nil {
			n.tel.suspectsCleared.Inc() // the exchange itself unsuspected it
			n.log.Debug("suspect recovered", "peer", a)
		}
	}
}
