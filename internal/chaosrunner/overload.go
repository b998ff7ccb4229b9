// The overload-protection tier: instead of the seeded fault schedule,
// one member (the victim) runs with a tiny admission cap while
// Zipf-skewed hot-key traffic hammers keys it owns and control traffic
// measures the rest of the cluster. The tier asserts the end-to-end
// overload invariants from telemetry deltas:
//
//   - Conservation: on every member, admission_offered_total ==
//     admitted + shed + queue_timeout once the load settles, and the
//     victim demonstrably shed (its cap was real).
//   - Durability under shedding: the tier's history, ending in a
//     readback of every acked Put from every live node, passes the
//     consistency check — shedding may refuse work, never lose it.
//   - Graceful degradation: p99 of the admitted control traffic stays
//     within a small factor of its unloaded baseline while the victim's
//     shed rate rises — overload is routed around, not waited out.
//   - Bounded retries: each node's cumulative retries_total stays under
//     the token-bucket ceiling (initial allowance plus a fixed fraction
//     of its completed exchanges).
//   - Overload is not crash: once the load stops, lookups from every
//     member still converge to the victim for its keys — nobody
//     mistook a shedding peer for a dead one.
package chaosrunner

import (
	"fmt"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/internal/loadgen"
	"cycloid/p2p"
)

const (
	// overloadVictimOrd is the member ordinal that gets the tiny cap,
	// overloadVictimCap.
	overloadVictimOrd = 0
	overloadVictimCap = 2
	// overloadOthersCap is the non-victim members' MaxInflight: high
	// enough never to shed, so their admission counters exercise the
	// conservation invariant on the admit path alone.
	overloadOthersCap = 64
	// overloadHotKeys victim-owned keys take the hot traffic, with
	// key popularity skewed by overloadZipf (must be > 1 per
	// math/rand's Zipf). Each load phase issues overloadOps operations.
	overloadHotKeys = 4
	overloadZipf    = 1.3
	overloadOps     = 400
	// overloadCtrlKeys sizes the control-key population (owned away
	// from the victim).
	overloadCtrlKeys = 16
	// overloadAckedPuts is how many victim-owned keys the durability
	// writer Puts during the loaded window.
	overloadAckedPuts = 16
	// overloadP99Factor and overloadP99SlackUS bound the admitted
	// control traffic's p99 against its unloaded baseline: p99 must
	// stay under factor*baseline + slack. The slack absorbs the part of
	// the tail that does not scale with the baseline: a control request
	// routed through the shedding victim legitimately spends up to
	// three deliberate jittered retry-after waits (each roughly
	// (QueueDepth+1) x observed service time, so ~5-10ms here) before
	// succeeding — that wait is the backoff design working, not a
	// latency regression. 30ms covers those waits; the non-FIFO
	// admission tail this assertion exists to catch sat at 70-90ms.
	overloadP99Factor  = 3
	overloadP99SlackUS = 30000
	// overloadHotTimeout caps each hot operation so expired work is
	// dropped by deadline propagation instead of clogging the victim's
	// queue; hot errors are expected shed traffic, not failures.
	overloadHotTimeout = 100 * time.Millisecond
	// overloadHotClients is the hot workload's closed-loop worker
	// count: well above the victim's cap+queue so arrivals always
	// outpace its delayed service and the queue stays saturated.
	overloadHotClients = 16
	// overloadServiceDelay is the victim's simulated per-request
	// service time (p2p.Config.ServiceDelay). The fabric never sleeps,
	// so without it every handler completes in microseconds and even a
	// cap of 2 would drain faster than any workload can arrive; 1ms is
	// long enough for occupancy to build deterministically and short
	// enough to keep the tier fast.
	overloadServiceDelay = time.Millisecond
)

// OverloadReport is the overload tier's measurements. Counter fields
// are deltas over the loaded window; the victim fields come from the
// capped node alone.
type OverloadReport struct {
	Victim        string // victim's listen address
	HotKeys       int    // victim-owned keys under Zipf fire
	BaselineP99us int64  // control-traffic p99, unloaded
	OverloadP99us int64  // control-traffic p99, while the victim sheds

	Offered       uint64 // victim: requests presented to admission
	Admitted      uint64 // victim: requests dispatched
	Shed          uint64 // victim: requests refused with busy
	QueueTimeouts uint64 // victim: queued requests dropped at deadline

	FleetRetries uint64 // all members: budgeted busy retries
	HotOps       int    // hot operations issued (errors are expected)
	HotErrors    int
	CtrlOps      int // control operations issued
	CtrlErrors   int
	AckedPuts    int // Puts acked during the window (all must read back)
}

// admSnap is one member's overload-relevant counters at an instant.
type admSnap struct {
	offered, admitted, shed, qto uint64
	retries, exchanges           uint64
}

func (r *runner) admSnapshot(m *member) admSnap {
	v := m.node.Telemetry().CounterValues()
	return admSnap{
		offered:   v["cycloid_admission_offered_total"],
		admitted:  v["cycloid_admission_admitted_total"],
		shed:      v["cycloid_admission_shed_total"],
		qto:       v["cycloid_admission_queue_timeout_total"],
		retries:   v["cycloid_retries_total"],
		exchanges: v["cycloid_wire_exchanges_total"],
	}
}

// keysWithOwner searches deterministic key names until count keys whose
// responsible node matches (or, inverted, avoids) owner are found.
func (r *runner) keysWithOwner(prefix string, owner ids.CycloidID, match bool, count int) ([]string, error) {
	var out []string
	for i := 0; len(out) < count; i++ {
		if i > 1<<20 {
			return nil, fmt.Errorf("chaosrunner: no %d %q keys with owner-match=%v in 2^20 candidates", count, prefix, match)
		}
		k := fmt.Sprintf("%s-%d", prefix, i)
		if (r.bruteOwner(r.keyPoint(k)) == owner) == match {
			out = append(out, k)
		}
	}
	return out, nil
}

// runOverload executes the overload tier on the booted, stabilized
// overlay and returns its report. Invariant violations are data on the
// Result, not errors, matching the fault-schedule path.
func (r *runner) runOverload() (*Result, error) {
	victim := r.byOrd(overloadVictimOrd)
	hot, err := r.keysWithOwner("hot", victim.id, true, overloadHotKeys)
	if err != nil {
		return nil, err
	}
	ctrl, err := r.keysWithOwner("ctrl", victim.id, false, overloadCtrlKeys)
	if err != nil {
		return nil, err
	}
	ackedKeys, err := r.keysWithOwner("acked", victim.id, true, overloadAckedPuts)
	if err != nil {
		return nil, err
	}
	var origins []*member
	for _, m := range r.liveMembers() {
		if m.ord != overloadVictimOrd {
			origins = append(origins, m)
		}
	}
	originNodes := make([]*p2p.Node, len(origins))
	for i, m := range origins {
		originNodes[i] = m.node
	}

	rep := RoundReport{Round: 0}
	violation := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// The control workload, run once with the cluster otherwise idle as
	// the baseline and once during the loaded window.
	control := func(seed int64) func() (*loadgen.Report, error) {
		return loadgen.Start(r.h, loadgen.Config{
			Nodes:       originNodes,
			Mix:         loadgen.Mix{Get: 3, Lookup: 1},
			KeyList:     ctrl,
			Seed:        seed,
			Ops:         overloadOps,
			Concurrency: clients,
			OpTimeout:   dialTimeout,
		})
	}
	base, err := control(r.cfg.Seed)()
	if err != nil {
		return nil, fmt.Errorf("chaosrunner: baseline load: %w", err)
	}

	before := make(map[int]admSnap)
	for _, m := range r.liveMembers() {
		before[m.ord] = r.admSnapshot(m)
	}

	// The loaded window: Zipf hot-key fire at the victim's keys, the
	// control workload measuring the rest of the cluster, and the
	// durability writer acking Puts of victim-owned keys — all
	// concurrent. The hot mix is Put-heavy on purpose: the store handler
	// holds its admission slot across the synchronous replica fan-out —
	// a real network exchange — so writes are the hot ops whose
	// slot-hold time is long enough for occupancy to build past
	// cap+queue. Gets ride along to exercise the shed->replica-fallback
	// path.
	hotWait := loadgen.Start(r.h, loadgen.Config{
		Nodes:       originNodes,
		Mix:         loadgen.Mix{Put: 3, Get: 1},
		KeyList:     hot,
		Zipf:        overloadZipf,
		Seed:        r.cfg.Seed + 1,
		Ops:         overloadOps,
		Concurrency: overloadHotClients,
		OpTimeout:   overloadHotTimeout,
	})
	ctrlWait := control(r.cfg.Seed + 2)
	var writes []loadgen.Step
	for i, k := range ackedKeys {
		writes = append(writes, loadgen.Step{Op: loadgen.OpPut, Node: origins[i%len(origins)].node, Key: k, Value: []byte(fmt.Sprintf("acked-v%d", i))})
	}
	var acked []string
	for _, rec := range (&loadgen.Exec{History: r.h, Timeout: dialTimeout}).Start([][]loadgen.Step{writes})() {
		if rec.Err == nil {
			acked = append(acked, rec.Key)
		}
	}
	hotRep, hotErr := hotWait()
	ctrlRep, ctrlErr := ctrlWait()
	if hotErr != nil {
		return nil, fmt.Errorf("chaosrunner: hot load: %w", hotErr)
	}
	if ctrlErr != nil {
		return nil, fmt.Errorf("chaosrunner: control load: %w", ctrlErr)
	}

	// Conservation: offered == admitted + shed + queue_timeout on every
	// member once in-flight work settles. Queued requests are decided
	// within their own deadline, so poll briefly rather than assuming
	// instant quiescence.
	settleBy := time.Now().Add(2 * time.Second)
	for _, m := range r.liveMembers() {
		for {
			s := r.admSnapshot(m)
			if s.offered == s.admitted+s.shed+s.qto {
				break
			}
			if time.Now().After(settleBy) {
				violation("admission counters on %s never settled: offered=%d admitted=%d shed=%d queue_timeout=%d",
					m.name, s.offered, s.admitted, s.shed, s.qto)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fleet.Stabilize(r.liveNodes(), stabilizeRounds)

	after := make(map[int]admSnap)
	for _, m := range r.liveMembers() {
		after[m.ord] = r.admSnapshot(m)
	}
	vb, va := before[victim.ord], after[victim.ord]
	orep := &OverloadReport{
		Victim:        victim.node.Addr(),
		HotKeys:       len(hot),
		BaselineP99us: base.P99,
		OverloadP99us: ctrlRep.P99,
		Offered:       va.offered - vb.offered,
		Admitted:      va.admitted - vb.admitted,
		Shed:          va.shed - vb.shed,
		QueueTimeouts: va.qto - vb.qto,
		HotOps:        hotRep.Ops,
		HotErrors:     hotRep.Errors,
		CtrlOps:       ctrlRep.Ops,
		CtrlErrors:    ctrlRep.Errors,
		AckedPuts:     len(acked),
	}
	for _, m := range r.liveMembers() {
		orep.FleetRetries += after[m.ord].retries - before[m.ord].retries
	}

	// The victim's tiny cap must have been real: Zipf fire at its own
	// keys has to make it shed, or the tier measured nothing.
	if orep.Shed == 0 {
		violation("victim %s shed nothing under hot-key load (offered %d, cap %d)",
			victim.name, orep.Offered, overloadVictimCap)
	}

	// Graceful degradation: admitted control traffic stays fast while
	// the victim sheds.
	if limit := overloadP99Factor*base.P99 + overloadP99SlackUS; ctrlRep.P99 > limit {
		violation("control p99 %dus under overload exceeds %dx baseline %dus + %dus slack",
			ctrlRep.P99, overloadP99Factor, base.P99, overloadP99SlackUS)
	}
	// Control traffic never aims at the victim, so its error rate is
	// bounded like load-during-churn traffic, not exempt like the hot
	// traffic (whose errors ARE the shedding).
	if ctrlRep.Ops > 0 {
		if rate := float64(ctrlRep.Errors) / float64(ctrlRep.Ops); rate > 0.2 {
			violation("control error rate %.3f (%d/%d) under overload exceeds 0.2",
				rate, ctrlRep.Errors, ctrlRep.Ops)
		}
	}

	// Bounded retries: cumulative retries_total on every member stays
	// under the token bucket's ceiling — the initial allowance plus the
	// earn fraction (0.1/exchange) of its completed exchanges, plus one
	// for rounding. The bucket can never mint tokens, so this holds
	// from node start regardless of phase boundaries.
	for _, m := range r.liveMembers() {
		if s := after[m.ord]; s.retries > 11+s.exchanges/10 {
			violation("%s spent %d retries with only %d exchanges completed (budget ceiling %d)",
				m.name, s.retries, s.exchanges, 11+s.exchanges/10)
		}
	}

	// Durability: every Put acked during the window reads back from
	// every live node — shedding refused work but never lost acked work.
	r.h.Barrier()
	var readback []loadgen.Step
	for _, k := range acked {
		for _, m := range r.liveMembers() {
			readback = append(readback, loadgen.Step{Op: loadgen.OpGet, Node: m.node, Key: k})
		}
	}
	r.x.Start([][]loadgen.Step{readback})()
	for _, v := range r.h.Check(0) {
		violation("%s", v)
	}

	// Overload is not crash: with the load gone, lookups from every
	// member still converge to the victim for its hot keys. A member
	// that escalated busy replies into suspicion would have evicted the
	// victim and route elsewhere.
	for _, k := range hot {
		want := r.bruteOwner(r.keyPoint(k))
		for _, m := range r.liveMembers() {
			route, err := m.node.Lookup(k)
			if err != nil {
				violation("post-overload lookup %q from %s: %v", k, m.name, err)
			} else if route.Terminal != want {
				violation("post-overload lookup %q from %s: terminal %v, want %v (victim routed around for good)",
					k, m.name, route.Terminal, want)
			}
		}
	}

	rep.Live = len(r.liveMembers())
	rep.LoadOps = orep.HotOps + orep.CtrlOps
	rep.LoadErrors = orep.HotErrors + orep.CtrlErrors
	res := &Result{
		Rounds:     []RoundReport{rep},
		Violations: rep.Violations,
		FinalLive:  rep.Live,
		FinalKeys:  len(acked),
		Overload:   orep,
	}
	return res, nil
}
