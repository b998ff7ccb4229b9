package p2p

import (
	"testing"
	"time"

	"cycloid/internal/ids"
)

// bareNode builds a node for unit-testing state transitions without
// joining it to anything.
func bareNode(t *testing.T, dim int, id ids.CycloidID) *Node {
	t.Helper()
	nd, err := Start(testConfig(dim, id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

func we(k uint8, a uint32, addr string) *WireEntry { return &WireEntry{K: k, A: a, Addr: addr} }

func TestApplyJoinSameCycle(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 2, A: 10})
	// Alone: the first same-cycle joiner becomes both inside neighbors.
	nd.offer(entry{ID: ids.CycloidID{K: 4, A: 10}, Addr: "x:1"})
	st := nd.wireState()
	if st.InsideR.K != 4 || st.InsideL.K != 4 {
		t.Fatalf("inside leaf after first join: %+v / %+v", st.InsideL, st.InsideR)
	}
	// A closer successor (k=3) displaces the k=4 entry on the right only.
	nd.offer(entry{ID: ids.CycloidID{K: 3, A: 10}, Addr: "x:2"})
	st = nd.wireState()
	if st.InsideR.K != 3 {
		t.Fatalf("insideR = %+v, want k=3", st.InsideR)
	}
	if st.InsideL.K != 4 {
		t.Fatalf("insideL = %+v, want k=4 (wrap)", st.InsideL)
	}
}

func TestApplyJoinRemoteCycle(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 2, A: 10})
	// First remote node anchors both outside sides.
	nd.offer(entry{ID: ids.CycloidID{K: 1, A: 20}, Addr: "x:1"})
	st := nd.wireState()
	if st.OutsideR.A != 20 || st.OutsideL.A != 20 {
		t.Fatalf("outside after first join: %+v / %+v", st.OutsideL, st.OutsideR)
	}
	// A strictly nearer cycle clockwise displaces the right entry.
	nd.offer(entry{ID: ids.CycloidID{K: 0, A: 12}, Addr: "x:2"})
	st = nd.wireState()
	if st.OutsideR.A != 12 {
		t.Fatalf("outsideR = %+v, want cycle 12", st.OutsideR)
	}
	// A higher-k node in that same cycle becomes the new primary.
	nd.offer(entry{ID: ids.CycloidID{K: 3, A: 12}, Addr: "x:3"})
	st = nd.wireState()
	if st.OutsideR.K != 3 {
		t.Fatalf("outsideR = %+v, want new primary k=3", st.OutsideR)
	}
	// A farther cycle changes nothing.
	nd.offer(entry{ID: ids.CycloidID{K: 4, A: 25}, Addr: "x:4"})
	if got := nd.wireState().OutsideR; got.A != 12 {
		t.Fatalf("outsideR moved to farther cycle: %+v", got)
	}
}

func TestApplyLeaveSplices(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 2, A: 10})
	leaver := ids.CycloidID{K: 4, A: 10}
	nd.offer(entry{ID: leaver, Addr: "x:1"})
	// The leaver reports its own neighbors: k=0 (its successor around the
	// wrap) and this node (its predecessor).
	dep := &WireState{
		Self:    WireEntry{K: 4, A: 10, Addr: "x:1"},
		InsideL: we(2, 10, nd.Addr()),
		InsideR: we(0, 10, "x:2"),
	}
	nd.applyLeave(entry{ID: leaver, Addr: "x:1"}, dep)
	st := nd.wireState()
	if st.InsideR.K != 0 || st.InsideR.Addr != "x:2" {
		t.Fatalf("insideR not spliced to leaver's successor: %+v", st.InsideR)
	}
	// insideL pointed at the leaver too. The cycle now holds this node
	// and k=0 only, so k=0 is its predecessor as well as its successor.
	if st.InsideL.K != 0 || st.InsideL.Addr != "x:2" {
		t.Fatalf("insideL not spliced to the cycle's other member: %+v", st.InsideL)
	}
}

func TestApplyLeavePrimaryReplacement(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 2, A: 10})
	primary := ids.CycloidID{K: 4, A: 13}
	nd.offer(entry{ID: primary, Addr: "x:1"})
	if nd.wireState().OutsideR.A != 13 {
		t.Fatal("setup: primary not adopted")
	}
	// Case A: the primary leaves but its cycle keeps a member: the
	// leaver's cycle predecessor becomes the new primary.
	dep := &WireState{
		Self:    WireEntry{K: 4, A: 13, Addr: "x:1"},
		InsideL: we(1, 13, "x:2"),
		InsideR: we(1, 13, "x:2"),
	}
	nd.applyLeave(entry{ID: primary, Addr: "x:1"}, dep)
	st := nd.wireState()
	if st.OutsideR.A != 13 || st.OutsideR.K != 1 {
		t.Fatalf("outsideR = %+v, want (1,13)", st.OutsideR)
	}
	// Case B: that node leaves too and was alone: fall through to the
	// leaver's own outside entry.
	dep2 := &WireState{
		Self:     WireEntry{K: 1, A: 13, Addr: "x:2"},
		InsideL:  we(1, 13, "x:2"), // self-reference: alone on its cycle
		InsideR:  we(1, 13, "x:2"),
		OutsideR: we(3, 20, "x:3"),
	}
	nd.applyLeave(entry{ID: ids.CycloidID{K: 1, A: 13}, Addr: "x:2"}, dep2)
	st = nd.wireState()
	if st.OutsideR.A != 20 {
		t.Fatalf("outsideR = %+v, want cycle 20", st.OutsideR)
	}
}

func TestUpdateIgnoresMalformed(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 2, A: 10})
	before := nd.wireState()
	nd.handleUpdate(request{Op: "update", Event: "join"})                                         // no subject
	nd.handleUpdate(request{Op: "update", Event: "leave", Subject: we(1, 1, "x")})                // no departed state
	nd.handleUpdate(request{Op: "update", Event: "nonsense", Subject: we(1, 1, "x")})             // unknown event
	nd.handleUpdate(request{Op: "update", Event: "join", Subject: we(nd.ID().K, nd.ID().A, "x")}) // self
	after := nd.wireState()
	if *before.InsideL != *after.InsideL || *before.OutsideR != *after.OutsideR {
		t.Fatal("malformed updates must not change state")
	}
}

func TestUnknownOpOverWire(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 1, A: 1})
	if _, err := nd.call(nd.Addr(), request{Op: "frobnicate"}); err == nil {
		t.Fatal("unknown op should error")
	}
}

func TestCallDeadAddress(t *testing.T) {
	nd := bareNode(t, 5, ids.CycloidID{K: 1, A: 2})
	start := time.Now()
	if _, err := nd.call("127.0.0.1:1", request{Op: "ping"}); err == nil {
		t.Fatal("dialing a dead address should fail")
	}
	if time.Since(start) > nd.cfg.DialTimeout+time.Second {
		t.Fatal("dead dial took far longer than the configured timeout")
	}
}

func TestWireEntryRoundTrip(t *testing.T) {
	e := entry{ID: ids.CycloidID{K: 3, A: 17}, Addr: "10.0.0.1:4001"}
	if got := toEntry(wireEntry(e)); got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
	if wirePtr(nil) != nil || entryPtr(nil) != nil {
		t.Fatal("nil pointers must round-trip as nil")
	}
	if got := entryPtr(wirePtr(&e)); *got != e {
		t.Fatalf("pointer round trip: %+v", got)
	}
}
