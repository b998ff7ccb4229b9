package loadgen

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// ev is one synthetic history entry: an operation or a mark spanning
// [inv, ret] on the history's counter.
type ev struct {
	op       Op
	key, val string
	ver      uint64
	fail     bool
	inv, ret int64
}

func history(evs ...ev) *History {
	h := new(History)
	for _, e := range evs {
		r := Record{Op: e.op, Key: e.key, Ver: e.ver, Invoke: e.inv, Return: e.ret, Origin: "n0"}
		if e.val != "" {
			r.Value = []byte(e.val)
		}
		if e.fail {
			r.Err = errors.New("boom")
		}
		h.add(r)
	}
	return h
}

// TestCheckerModel runs the checker over synthetic histories: every
// anomaly the model forbids must be flagged, every one it allows must
// not be.
func TestCheckerModel(t *testing.T) {
	barrier := func(at int64) ev { return ev{op: OpBarrier, inv: at, ret: at} }
	for _, tc := range []struct {
		name string
		h    *History
		rule string // "" when the history is legal
	}{
		// Forbidden.
		{"lost acked write: read misses", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			barrier(3),
			ev{op: OpGet, key: "k", fail: true, inv: 4, ret: 5},
		), "acked write lost"},
		{"lost acked write: read returns the overwritten value", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpPut, key: "k", val: "b", inv: 3, ret: 4},
			barrier(5),
			ev{op: OpGet, key: "k", val: "a", ver: 1, inv: 6, ret: 7},
		), "acked write lost"},
		{"phantom value", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpGet, key: "k", val: "z", inv: 3, ret: 4},
		), "read a value never written"},
		{"value read before its write began", history(
			ev{op: OpGet, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpPut, key: "k", val: "a", inv: 3, ret: 4},
		), "read a value never written"},
		{"version regression", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			barrier(3),
			ev{op: OpGet, key: "k", val: "a", ver: 5, inv: 4, ret: 5},
			ev{op: OpGet, key: "k", val: "a", ver: 3, inv: 6, ret: 7},
		), "version regressed"},
		{"corrupted acked blob", history(
			ev{op: OpBlobPut, key: "movie", val: "digest-A", inv: 1, ret: 2},
			barrier(3),
			ev{op: OpBlobGet, key: "movie", val: "digest-B", inv: 4, ret: 5},
		), "read a value never written"},
		{"settled write fails", history(
			barrier(1),
			ev{op: OpPut, key: "k", val: "a", fail: true, inv: 2, ret: 3},
		), "settled operation failed"},
		{"key a live node holds is unreadable", history(
			barrier(1),
			ev{op: OpGet, key: "blob:c:x", fail: true, inv: 2, ret: 3},
		), "settled operation failed"},
		{"forfeited key a live node holds is unreadable", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpForfeit, key: "k", inv: 3, ret: 3},
			barrier(4),
			ev{op: OpGet, key: "k", fail: true, inv: 5, ret: 6},
		), "settled operation failed"},
		{"acked blob unreadable", history(
			ev{op: OpBlobPut, key: "movie", val: "digest-A", inv: 1, ret: 2},
			barrier(3),
			ev{op: OpBlobRead, key: "movie", fail: true, inv: 4, ret: 5},
		), "acked write lost"},

		// Allowed.
		{"stale read before the barrier", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpPut, key: "k", val: "b", inv: 3, ret: 4},
			ev{op: OpGet, key: "k", val: "a", inv: 5, ret: 6},
			ev{op: OpGet, key: "k", fail: true, inv: 7, ret: 8},
		), ""},
		{"stale read in a window the churn reopened", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpPut, key: "k", val: "b", inv: 3, ret: 4},
			barrier(5),
			ev{op: OpChurn, inv: 6, ret: 6},
			ev{op: OpGet, key: "k", val: "a", inv: 7, ret: 8},
		), ""},
		{"concurrent write lost under LWW", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 4},
			ev{op: OpPut, key: "k", val: "b", inv: 2, ret: 3},
			barrier(5),
			ev{op: OpGet, key: "k", val: "a", ver: 2, inv: 6, ret: 7},
			ev{op: OpGet, key: "k", val: "a", ver: 2, inv: 8, ret: 9},
		), ""},
		{"un-acked write survives", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpPut, key: "k", val: "b", fail: true, inv: 3, ret: 4},
			barrier(5),
			ev{op: OpGet, key: "k", val: "b", inv: 6, ret: 7},
		), ""},
		{"un-acked write lost", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			ev{op: OpPut, key: "k", val: "b", fail: true, inv: 3, ret: 4},
			barrier(5),
			ev{op: OpGet, key: "k", val: "a", inv: 6, ret: 7},
		), ""},
		{"forfeited write lost, version order restarts", history(
			ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
			barrier(3),
			ev{op: OpGet, key: "k", val: "a", ver: 4, inv: 4, ret: 5},
			ev{op: OpChurn, inv: 6, ret: 6},
			ev{op: OpForfeit, key: "k", inv: 7, ret: 7},
			ev{op: OpGet, key: "k", fail: true, inv: 8, ret: 9},
			ev{op: OpPut, key: "k", val: "b", inv: 10, ret: 11},
			barrier(12),
			ev{op: OpGet, key: "k", val: "b", ver: 1, inv: 13, ret: 14},
		), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs := tc.h.Check(0)
			if tc.rule == "" {
				for _, v := range vs {
					t.Errorf("legal history flagged: %s", v)
				}
				return
			}
			if len(vs) == 0 {
				t.Fatalf("checker missed %q", tc.rule)
			}
			if !strings.HasPrefix(vs[0].String(), tc.rule+": ") {
				t.Errorf("violation %q, want rule %q", vs[0], tc.rule)
			}
			// A violation names its records: kind, key and origin.
			last := tc.h.recs[len(tc.h.recs)-1]
			if s := vs[0].String(); !strings.Contains(s, fmt.Sprintf("%q from n0", last.Key)) {
				t.Errorf("violation %q does not name the offending record", s)
			}
		})
	}
}

// TestCheckFromSkipsEarlierRecords pins Check's window: breaches shown
// by records before from are not reported again.
func TestCheckFromSkipsEarlierRecords(t *testing.T) {
	h := history(
		ev{op: OpPut, key: "k", val: "a", inv: 1, ret: 2},
		ev{op: OpGet, key: "k", val: "z", inv: 3, ret: 4},
		ev{op: OpGet, key: "k", val: "a", inv: 5, ret: 6},
	)
	if vs := h.Check(0); len(vs) != 1 {
		t.Fatalf("Check(0) = %v, want the one phantom", vs)
	}
	if vs := h.Check(2); len(vs) != 0 {
		t.Fatalf("Check(2) = %v, want nothing", vs)
	}
}

func TestAckedViewDropsForfeits(t *testing.T) {
	h := history(
		ev{op: OpPut, key: "a", val: "1", inv: 1, ret: 2},
		ev{op: OpPut, key: "b", val: "1", inv: 3, ret: 4},
		ev{op: OpPut, key: "c", val: "1", fail: true, inv: 5, ret: 6},
		ev{op: OpBlobPut, key: "movie", val: "d", inv: 7, ret: 8},
		ev{op: OpForfeit, key: "b", inv: 9, ret: 9},
		ev{op: OpPut, key: "a", val: "2", inv: 10, ret: 11},
		ev{op: OpForfeit, key: "a", inv: 12, ret: 12},
		ev{op: OpPut, key: "a", val: "3", inv: 13, ret: 14},
	)
	if got := strings.Join(h.Acked(OpPut), ","); got != "a" {
		t.Errorf("acked puts = %q, want a (b forfeited, c never acked)", got)
	}
	if got := strings.Join(h.Acked(OpBlobPut), ","); got != "movie" {
		t.Errorf("acked blobs = %q, want movie", got)
	}
}

// TestSessionStatsPerCompletedSession pins the rebuffer denominator: a
// failed session never reached its end, so rebuffers are averaged over
// completed sessions, and those are the sessions reported.
func TestSessionStatsPerCompletedSession(t *testing.T) {
	st := SessionStats([]Record{
		{Op: OpBlobGet, Chunks: 8, Rebuffers: 1},
		{Op: OpBlobGet, Chunks: 8, Rebuffers: 3},
		{Op: OpBlobGet, Chunks: 2, Rebuffers: 2, Err: errors.New("stale")},
		{Op: OpBlobPut},
	})
	if st.Sessions != 2 || st.Errors != 1 || st.Chunks != 18 || st.Rebuffers != 6 {
		t.Fatalf("stats %+v, want 2 sessions, 1 error, 18 chunks, 6 rebuffers", st)
	}
	if st.RebufferRate != 3 {
		t.Errorf("rebuffer rate %.2f, want 6 over 2 completed sessions = 3", st.RebufferRate)
	}
}

// TestRunHistoryChecks drives the load-smoke mix (concurrent writes to
// Zipf-hot keys) on a settled overlay and requires one record per
// operation, versions on every successful Get, the answering node on
// every successful Get and Lookup, and a clean check.
func TestRunHistoryChecks(t *testing.T) {
	nodes := cluster(t, 42, 6, 12)
	h := new(History)
	h.Barrier()
	rep, err := Start(h, Config{Nodes: nodes, Mix: Mix{Put: 1, Get: 4, Lookup: 5}, Keys: 16, Zipf: 1.2, Seed: 3, Ops: 600, Concurrency: 8})()
	if err != nil {
		t.Fatal(err)
	}
	recs := h.Records()
	if want := 1 + 16 + rep.Ops; len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	gets := 0
	for _, r := range recs {
		if (r.Op == OpGet || r.Op == OpLookup) && r.Err == nil &&
			(r.Terminal == "" || !strings.Contains(r.String(), " at "+r.Terminal)) {
			t.Fatalf("answering node not recorded: %s", r)
		}
		if r.Op == OpGet && r.Err == nil {
			gets++
			if r.Ver == 0 {
				t.Fatalf("get saw no version: %s", r)
			}
		}
	}
	if gets == 0 {
		t.Fatal("no successful gets recorded")
	}
	for _, v := range h.Check(0) {
		t.Error(v)
	}
}
