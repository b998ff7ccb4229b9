package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one entry of a History: a client operation, or a mark the
// harness laid down (Barrier, Churn, Forfeit).
type Record struct {
	Client int    // plan lane or closed-loop worker; -1 for marks
	Op     Op     // operation kind
	Origin string // issuing node's address
	Key    string // KV key or blob name; one register either way
	Value  []byte // value written or read; a SHA-256 digest for blobs
	Ver    uint64 // version a Get saw (Route.Ver)
	// Invoke and Return are positions on the history's one counter, so
	// a.Return < b.Invoke means a finished before b started.
	Invoke, Return int64
	Err            error

	// Measurements for reports; the model ignores them.
	Latency   time.Duration
	Timeouts  int
	TraceID   string
	Terminal  string        // Get, Lookup: the answering node (Route.Addr), failed ones too
	TTFB      time.Duration // blob reads: time to the first chunk
	Chunks    int           // blob reads: chunks read
	Rebuffers int           // blob reads: chunks past their playout deadline
}

func (r Record) String() string {
	s := fmt.Sprintf("%s %q from %s [%d,%d]", r.Op, r.Key, r.Origin, r.Invoke, r.Return)
	if r.Terminal != "" {
		s += " at " + r.Terminal
	}
	if r.Ver > 0 {
		s += fmt.Sprintf(" ver=%d", r.Ver)
	}
	if r.Err != nil {
		s += " err=" + r.Err.Error()
	}
	return s
}

// History is the record of every operation a harness's clients issued,
// in the order they returned. It draws no randomness.
type History struct {
	clock atomic.Int64
	mu    sync.Mutex
	recs  []Record
}

func (h *History) tick() int64 { return h.clock.Add(1) }

func (h *History) add(r Record) {
	h.mu.Lock()
	h.recs = append(h.recs, r)
	h.mu.Unlock()
}

func (h *History) mark(op Op, key string) {
	t := h.tick()
	h.add(Record{Client: -1, Op: op, Key: key, Invoke: t, Return: t})
}

// Barrier marks the overlay healed and stabilized: operations invoked
// from here until the next Churn are settled, and the checker holds
// them to the strict rules of the model.
func (h *History) Barrier() { h.mark(OpBarrier, "") }

// Churn ends the settled window: faults or membership changes follow.
func (h *History) Churn() { h.mark(OpChurn, "") }

// Forfeit records that key's acked writes so far may be gone: the
// harness crashed R or more nodes at once, which the model permits to
// lose data.
func (h *History) Forfeit(key string) { h.mark(OpForfeit, key) }

// Len is the number of records so far; Check(h.Len()) later judges only
// what was recorded after this point.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.recs)
}

// Records returns the history so far. The records are shared, not
// copied: callers must not modify them.
func (h *History) Records() []Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recs[:len(h.recs):len(h.recs)]
}

// Acked returns, sorted, the keys that write kind op (OpPut or
// OpBlobPut) acknowledged at least once since their last forfeit.
func (h *History) Acked(op Op) []string {
	acked, forfeit := map[string]int64{}, map[string]int64{}
	for _, r := range h.Records() {
		switch {
		case r.Op == op && r.Err == nil:
			acked[r.Key] = max(acked[r.Key], r.Return)
		case r.Op == OpForfeit:
			forfeit[r.Key] = r.Invoke
		}
	}
	var out []string
	for k, at := range acked {
		if at > forfeit[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Violation is one breach of the model, with the records that show it.
type Violation struct {
	Rule    string
	Records []Record
}

func (v Violation) String() string { return v.Rule + ": " + Summarize(v.Records, 3) }

// Failed reports whether the violation is an operation that returned an
// error, rather than one that returned a wrong answer.
func (v Violation) Failed() bool { return v.Records[0].Err != nil }

// Summarize renders the first n records and counts the rest.
func Summarize(recs []Record, n int) string {
	parts := make([]string, 0, n+1)
	for i, r := range recs {
		if i == n {
			parts = append(parts, fmt.Sprintf("and %d more", len(recs)-n))
			break
		}
		parts = append(parts, r.String())
	}
	return strings.Join(parts, "; ")
}

// Check enforces the consistency model (DESIGN.md, "Client-visible
// consistency") over the history and returns the breaches shown by
// records at index from or later; earlier records serve as context.
//
// Every key is a register. An operation is settled when the last
// window mark before it is a Barrier and none falls inside it. Then:
//
//   - a read never returns a value no write to its key wrote (always);
//   - a settled operation does not fail;
//   - a settled read of a key with an acked, unforfeited write returns
//     a value no such write superseded (lost acked write);
//   - a settled Get never sees a lower version than a settled Get of
//     the same key that finished before it started, unless the key was
//     forfeited in between.
//
// Keys the history never wrote (the blob layer's chunk and manifest
// keys, read back because a live node holds them) are judged on the
// settled rule alone.
//
// Check sweeps the counter once. Each record is judged at its Invoke
// against what had returned by then, so the cost is linear in the
// history plus, per read, the writes of the same key and value.
func (h *History) Check(from int) []Violation {
	recs := h.Records()
	var windows []Record
	type kv struct{ key, val string }
	src := map[kv][]int{} // the writes of each key and value
	// A register is one written key's state as of the sweep's position,
	// counting only operations that returned since its last forfeit.
	type register struct {
		acked  *Record // the acked write that returned last
		newest int64   // the latest Invoke of an acked write
		seen   *Record // the settled Get that saw the highest version
	}
	regs := map[string]*register{}
	var last int64
	for i, r := range recs {
		switch r.Op {
		case OpBarrier, OpChurn:
			windows = append(windows, r)
		case OpPut, OpBlobPut:
			k := kv{r.Key, string(r.Value)}
			src[k] = append(src[k], i)
			if regs[r.Key] == nil {
				regs[r.Key] = new(register)
			}
		}
		last = max(last, r.Return)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].Invoke < windows[j].Invoke })
	settled := func(r Record) bool {
		i := sort.Search(len(windows), func(i int) bool { return windows[i].Invoke > r.Invoke })
		return i > 0 && windows[i-1].Op == OpBarrier && (i == len(windows) || windows[i].Invoke > r.Return)
	}
	// at[t] is i+1 if record i is invoked at tick t, -(i+1) if it returns.
	at := make([]int, last+1)
	for i, r := range recs {
		at[r.Invoke] = i + 1
		if r.Return > r.Invoke {
			at[r.Return] = -(i + 1)
		}
	}

	var out []Violation
	flag := func(rule string, rs ...Record) { out = append(out, Violation{rule, rs}) }
	for _, e := range at {
		if e < 0 { // a return: update the register
			r := &recs[-e-1]
			switch g := regs[r.Key]; {
			case g == nil || r.Err != nil:
			case r.Op == OpPut || r.Op == OpBlobPut:
				g.acked, g.newest = r, max(g.newest, r.Invoke)
			case r.Op == OpGet && settled(*r) && (g.seen == nil || r.Ver > g.seen.Ver):
				g.seen = r
			}
			continue
		}
		if e == 0 {
			continue
		}
		r := recs[e-1]
		g := regs[r.Key]
		if r.Op == OpForfeit && g != nil {
			*g = register{}
		}
		st := settled(r)
		if e-1 < from || r.Op >= OpBarrier || r.Op == OpLookup && !st {
			continue
		}
		isRead := r.Op == OpGet || r.Op == OpBlobGet || r.Op == OpBlobRead
		switch {
		case r.Err != nil && st && isRead && g != nil && g.acked != nil:
			flag("acked write lost", r, *g.acked)
		case r.Err != nil && st:
			flag("settled operation failed", r)
		}
		if r.Err != nil || !isRead || g == nil {
			continue
		}
		// The value is fresh if some write that produced it was not
		// superseded: no acked write began after it returned.
		wrote, fresh := false, g.acked == nil
		for _, j := range src[kv{r.Key, string(r.Value)}] {
			if w := recs[j]; w.Invoke < r.Return {
				wrote, fresh = true, fresh || w.Return > g.newest
			}
		}
		switch {
		case !wrote:
			flag("read a value never written", r)
		case !st:
		case r.Op == OpGet && g.seen != nil && g.seen.Ver > r.Ver:
			flag("version regressed", *g.seen, r)
		case !fresh:
			flag("acked write lost", r, *g.acked)
		}
	}
	return out
}
