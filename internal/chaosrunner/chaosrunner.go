// Package chaosrunner drives seeded chaos schedules against a live p2p
// overlay on the deterministic in-memory transport (p2p/memnet). The
// schedule — which faults fire, which nodes join, leave, crash — is a
// pure function of the seed, so a failing run replays exactly. Every
// client operation runs through loadgen's executor into one
// loadgen.History. Each round has four phases:
//
//  1. Fault: inject one network fault (loss, latency, partition,
//     blackhole) and probe the overlay with lookups. The fleet-wide
//     delta of cycloid_lookup_timeouts_total must equal the probes'
//     summed Route.Timeouts.
//  2. Heal + membership: clear the faults, then apply the round's
//     membership events (join, graceful leave, lossy leave, crash; or
//     kill and restart). Load and streaming clients race them, and
//     their error rate stays under a bound.
//  3. Stabilize: synchronous stabilization sweeps, then a barrier in
//     the history.
//  4. Verify: clean puts and gets, a readback of every key and blob,
//     then the checks: the round's history against the consistency
//     model (loadgen.History.Check), lookups from every live node
//     converging to the responsible node, every routing table equal to
//     the simulator oracle's (see Oracle), telemetry counters
//     monotone, and no timeouts.
package chaosrunner

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/hashing"
	"cycloid/internal/ids"
	"cycloid/internal/loadgen"
	"cycloid/internal/telemetry"
	"cycloid/p2p"
	"cycloid/p2p/memnet"
)

// Config parameterizes one chaos run. The zero value of any field
// selects a default suitable for a fast test. Everything else a run
// needs — workload sizes, tier geometry, error bounds — is a constant
// of the harness or derived from these fields.
type Config struct {
	Seed   int64
	Dim    int       // Cycloid dimension (default 6)
	Nodes  int       // initial overlay size (default 12)
	Rounds int       // chaos rounds (default 8)
	Trace  io.Writer // optional: per-round routing-state dump

	// Replicas is the members' replication factor R (default 1). Keys
	// acked before a crash of f < R nodes must survive it.
	Replicas int
	// MultiCrash is the maximum number of simultaneous crashes a single
	// crash event may inflict (default 1). Values > 1 draw the count
	// from the schedule RNG; the default leaves the RNG stream — and
	// therefore every existing seeded schedule — byte-identical.
	MultiCrash int

	// LoadClients > 0 enables load-during-churn: that many clients
	// drive Gets on acked keys and fresh lookups through each round's
	// membership events and stabilization sweeps.
	LoadClients int

	// KillRestart upgrades crash events into kill/restart cycles: the
	// schedule emits EvKill instead of EvCrash, the killed node's data
	// directory survives, and one round later the runner reboots the
	// node from it — same ID, address and telemetry registry — and
	// requires it to replay every key it held at the kill. A kill whose
	// restart would land past the final round leaves the node down for
	// good. Members run durable stores in a run-scoped temporary
	// directory. A kill forfeits nothing, because the disk survives, so
	// kill/restart runs should use Replicas above the simultaneous kill
	// count to keep reads available through the downtime.
	KillRestart bool

	// TraceSample enables distributed tracing on every member
	// (p2p.Config.TraceSample). After the final round every
	// reconstructed span tree must pass its structural checks, with
	// detached spans tolerated only when the schedule crashes or kills
	// a node. Sampling never draws from the schedule RNG.
	TraceSample float64

	// StreamingClients > 0 enables streaming-during-churn: that many
	// clients write fresh chunked blobs (p2p/blob) and play paced viewer
	// sessions over acked ones through each round's churn (see
	// streaming.go).
	StreamingClients int

	// Overload selects the overload-protection tier instead of the
	// fault schedule (see overload.go). Replicas defaults to 2 in this
	// mode so reads survive the victim's shedding via replica
	// fallback. Run rejects it combined with KillRestart, LoadClients,
	// StreamingClients, MultiCrash > 1 or TraceSample, which it would
	// ignore.
	Overload bool
}

// The harness's fixed workload.
const (
	seedKeys         = 16  // keys seeded before round 1
	stabilizeRounds  = 3   // sweeps per quiescent window
	probes           = 8   // fault-phase lookups per round
	clients          = 4   // concurrent clean-phase clients
	opsPerClient     = 3   // put+get pairs per clean-phase client
	loadOpsPerClient = 8   // operations per load client per round
	maxLoadErrorRate = 0.2 // load clients' error bound, see boundErrors

	// dialTimeout is every member's per-contact budget. The fabric
	// never sleeps, so this costs no wall time; it is the real-clock
	// budget each in-memory exchange gets before its pipe deadline
	// fires, and a generous value keeps heavily loaded -race runs from
	// recording spurious timeouts.
	dialTimeout = time.Second
)

func (c *Config) defaults() {
	if c.Dim == 0 {
		c.Dim = 6
	}
	if c.Nodes == 0 {
		c.Nodes = 12
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 1
		if c.Overload {
			c.Replicas = 2
		}
	}
	if c.MultiCrash == 0 {
		c.MultiCrash = 1
	}
}

// Event kinds. Fault events run in phase 1, membership events in
// phase 2; "none" kinds record a quiet phase.
const (
	EvNone      = "none"
	EvDrop      = "drop"        // default drop probability P on all links
	EvLatency   = "latency"     // links toward Node exceed the dial timeout
	EvPartition = "partition"   // bisect the live membership
	EvBlackhole = "blackhole"   // Node unreachable both ways, healed same round
	EvJoin      = "join"        // Node (a fresh ordinal) joins
	EvLeave     = "leave"       // Node departs gracefully
	EvLossy     = "lossy-leave" // Node departs gracefully on a lossy fabric
	EvCrash     = "crash"       // Node closes without notifications
	EvKill      = "kill"        // Node closes without notifications; its data dir survives
	EvRestart   = "restart"     // Node reboots from its surviving data dir and rejoins
)

// Event is one scheduled action. Node is a member ordinal (the i-th
// node ever created), -1 when not applicable.
type Event struct {
	Round int
	Kind  string
	Node  int
	P     float64 // drop probability for EvDrop / EvLossy
}

// RoundReport is the per-round outcome.
type RoundReport struct {
	Round         int
	Live          int
	FaultTimeouts int      // timeouts observed while faults were active
	CleanTimeouts int      // timeouts observed after heal+stabilize (must be 0)
	LoadOps       int      // load-during-churn operations issued (0 unless LoadClients > 0)
	LoadErrors    int      // load-during-churn operations that failed
	StreamOps     int      // streaming-during-churn attempts: blob writes + viewer sessions
	StreamErrors  int      // streaming attempts that failed
	Rebuffers     int      // viewer chunks past their playout deadline this round
	Violations    []string // invariant violations detected this round
}

// Result is a full run's outcome. With LoadClients = 0 (the default)
// two runs with the same Config are identical, including every report
// field. Load-during-churn traffic races the membership events by
// design, so with LoadClients > 0 the timing-dependent fields
// (LoadErrors, and anything downstream of a request that lost the
// race) are exempt from that contract; the invariants themselves must
// still hold on every run.
type Result struct {
	Schedule   []Event
	Rounds     []RoundReport
	Violations []string // all rounds' violations, flattened
	FinalLive  int
	FinalKeys  int // keys acked and not forfeited at the end (History.Acked)
	Kills      int // kill events in the schedule (KillRestart runs)
	Restarts   int // restart events in the schedule (KillRestart runs)
	Traces     int // span trees reconstructed post-run (TraceSample > 0)
	Spans      int // spans collected fleet-wide post-run (TraceSample > 0)
	StreamOps  int // streaming attempts across all rounds (StreamingClients > 0)
	Rebuffers  int // rebuffer events across all rounds (StreamingClients > 0)
	AckedBlobs int // blobs acked and not forfeited at the end (StreamingClients > 0)

	// Overload carries the overload tier's measurements; nil unless
	// Config.Overload was set.
	Overload *OverloadReport
}

// GenerateSchedule derives the run's event schedule from the seed
// alone. It is pure: same Config, same schedule, byte for byte.
func GenerateSchedule(cfg Config) []Event {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	live := make([]int, cfg.Nodes)
	for i := range live {
		live[i] = i
	}
	next := cfg.Nodes
	var sched []Event

	pickLive := func() int { return live[rng.Intn(len(live))] }
	remove := func(ord int) {
		for i, v := range live {
			if v == ord {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}

	// pendingRestart maps a round to the ordinals whose one-round
	// kill/restart downtime ends there. Restart events go at the head of
	// their round's slice, so the runner reboots a node before
	// processing that round's own membership events.
	pendingRestart := make(map[int][]int)

	for r := 0; r < cfg.Rounds; r++ {
		for _, ord := range pendingRestart[r] {
			sched = append(sched, Event{Round: r, Kind: EvRestart, Node: ord})
			live = append(live, ord)
		}
		// Phase-1 fault.
		switch f := rng.Float64(); {
		case f < 0.20:
			sched = append(sched, Event{Round: r, Kind: EvNone, Node: -1})
		case f < 0.45:
			sched = append(sched, Event{Round: r, Kind: EvDrop, Node: -1, P: 0.2 + 0.3*rng.Float64()})
		case f < 0.60:
			sched = append(sched, Event{Round: r, Kind: EvLatency, Node: pickLive()})
		case f < 0.80:
			sched = append(sched, Event{Round: r, Kind: EvPartition, Node: -1})
		default:
			sched = append(sched, Event{Round: r, Kind: EvBlackhole, Node: pickLive()})
		}
		// Phase-2 membership. Shrinking events require headroom so the
		// overlay never degenerates below four nodes.
		m := rng.Float64()
		shrinkOK := len(live) > 4
		switch {
		case m < 0.20:
			sched = append(sched, Event{Round: r, Kind: EvNone, Node: -1})
		case m < 0.50:
			sched = append(sched, Event{Round: r, Kind: EvJoin, Node: next})
			live = append(live, next)
			next++
		case m < 0.70 && shrinkOK:
			ord := pickLive()
			sched = append(sched, Event{Round: r, Kind: EvLeave, Node: ord})
			remove(ord)
		case m < 0.85 && shrinkOK:
			ord := pickLive()
			sched = append(sched, Event{Round: r, Kind: EvLossy, Node: ord, P: 0.25})
			remove(ord)
		case shrinkOK:
			// With MultiCrash > 1 a crash event may take down several
			// nodes at once — the f < R durability scenario. The extra
			// RNG draw happens only when the knob is raised, so default
			// schedules stay byte-identical seed for seed.
			k := 1
			if cfg.MultiCrash > 1 {
				k = 1 + rng.Intn(cfg.MultiCrash)
			}
			for i := 0; i < k && len(live) > 4; i++ {
				ord := pickLive()
				if cfg.KillRestart {
					// Kill instead of crash: the node's disk survives and
					// a restart is queued for the next round, unless it
					// would land past the end of the run. No extra RNG
					// draw, so kill schedules mirror the crash schedules
					// of the same seed event for event.
					sched = append(sched, Event{Round: r, Kind: EvKill, Node: ord})
					if rr := r + 1; rr < cfg.Rounds {
						pendingRestart[rr] = append(pendingRestart[rr], ord)
					}
				} else {
					sched = append(sched, Event{Round: r, Kind: EvCrash, Node: ord})
				}
				remove(ord)
			}
		default:
			sched = append(sched, Event{Round: r, Kind: EvJoin, Node: next})
			live = append(live, next)
			next++
		}
	}
	return sched
}

// member is one overlay participant across its lifetime — including,
// under KillRestart, across kill/restart cycles, which reuse the
// member's address, data directory and telemetry registry.
type member struct {
	ord     int
	name    string
	id      ids.CycloidID
	node    *p2p.Node
	live    bool
	addr    string              // listen address, pinned across restarts
	dataDir string              // durable store root; "" for in-memory members
	reg     *telemetry.Registry // survives restarts so counters stay cumulative

	// keysAtKill / famsAtKill snapshot what the node held and exposed
	// when an EvKill took it down; the restart asserts both recover.
	keysAtKill []string
	famsAtKill []string
}

type runner struct {
	cfg      Config
	space    ids.Space
	nw       *memnet.Network
	members  []*member
	deal     *fleet.Dealer
	dataRoot string // parent of all member data dirs, "" for in-memory runs

	// h records every client operation of the run. The keys and blobs
	// the invariants track are its acked writes (History.Acked).
	h *loadgen.History
	x *loadgen.Exec // unpaced, no deadline

	// prevCounters holds each member's cumulative telemetry snapshot
	// from the previous round, for the monotonicity invariant. Entries
	// of permanently crashed members are pruned: their registries are
	// retired with them, and only kill/restart members carry counters
	// across a downtime.
	prevCounters map[int]map[string]uint64
}

// Run executes the seeded schedule and returns the full report. An
// error is returned only for harness-level failures (a Config the run
// cannot honour, or an initial overlay that could not even be built);
// invariant violations are data, not errors.
func Run(cfg Config) (*Result, error) {
	if cfg.Overload {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{cfg.KillRestart, "KillRestart"},
			{cfg.LoadClients > 0, "LoadClients"},
			{cfg.StreamingClients > 0, "StreamingClients"},
			{cfg.MultiCrash > 1, "MultiCrash > 1"},
			{cfg.TraceSample > 0, "TraceSample"},
		} {
			if f.set {
				return nil, fmt.Errorf("chaosrunner: the overload tier would ignore %s", f.name)
			}
		}
	}
	cfg.defaults()
	sched := GenerateSchedule(cfg)
	r, err := start(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if cfg.Overload {
		fleet.Stabilize(r.liveNodes(), stabilizeRounds)
		return r.runOverload()
	}
	fleet.Stabilize(r.liveNodes(), 2)
	r.h.Barrier()
	var seed []loadgen.Step
	for i := 0; i < seedKeys; i++ {
		k := fmt.Sprintf("seed-k%d", i)
		seed = append(seed, loadgen.Step{Op: loadgen.OpPut, Node: r.liveAt(i).node, Key: k, Value: []byte(k)})
	}
	for i := 0; i < cfg.StreamingClients; i++ {
		name := fmt.Sprintf("blob-seed-%d", i)
		seed = append(seed, loadgen.Step{Op: loadgen.OpBlobPut, Node: r.liveAt(i).node, Key: name, Value: blobContent(name, streamBlobSize)})
	}
	if failed := loadgen.Failed(r.x.Start([][]loadgen.Step{seed})()); len(failed) > 0 {
		return nil, fmt.Errorf("chaosrunner: seeding: %s", loadgen.Summarize(failed, 3))
	}

	res := &Result{Schedule: sched}
	for _, e := range sched {
		switch e.Kind {
		case EvKill:
			res.Kills++
		case EvRestart:
			res.Restarts++
		}
	}
	for round := 0; round < cfg.Rounds; round++ {
		rep := r.runRound(round, sched)
		res.Rounds = append(res.Rounds, rep)
		res.Violations = append(res.Violations, rep.Violations...)
		res.StreamOps += rep.StreamOps
		res.Rebuffers += rep.Rebuffers
	}
	res.FinalLive = len(r.liveMembers())
	res.FinalKeys = len(r.h.Acked(loadgen.OpPut))
	res.AckedBlobs = len(r.h.Acked(loadgen.OpBlobPut))
	if cfg.TraceSample > 0 {
		r.checkTraces(res, sched)
	}
	return res, nil
}

// checkTraces runs the post-run trace-completeness invariant: every
// span tree reconstructed from the fleet's buffers must pass its
// structural checks. Spans are collected from every member ever
// started — a crashed member's in-memory buffer outlives its Close —
// but a kill/restart cycle replaces the node object, losing the dead
// incarnation's spans, and a crash can destroy a caller mid-operation;
// detached spans are therefore tolerated exactly when the schedule
// contains crash or kill events.
func (r *runner) checkTraces(res *Result, sched []Event) {
	var spans []*telemetry.Span
	for _, m := range r.members {
		if m.node != nil {
			spans = append(spans, m.node.Spans().Snapshot()...)
		}
	}
	allowDetached := false
	for _, e := range sched {
		if e.Kind == EvCrash || e.Kind == EvKill {
			allowDetached = true
			break
		}
	}
	trees := telemetry.BuildTrees(spans)
	res.Spans = len(spans)
	res.Traces = len(trees)
	for _, tr := range trees {
		res.Violations = append(res.Violations, tr.Check(allowDetached)...)
	}
}

// start builds the runner and boots its first cfg.Nodes members. Under
// KillRestart every member's durable store lives in a run-scoped
// temporary directory, which close removes.
func start(cfg Config) (*runner, error) {
	h := new(loadgen.History)
	r := &runner{
		cfg:   cfg,
		space: ids.NewSpace(cfg.Dim),
		nw:    memnet.New(cfg.Seed),
		h:     h,
		x:     &loadgen.Exec{History: h, Blob: blobOpts},
		// Members start in ordinal order, each dealt the next ID of a
		// seed-derived stream independent of the event stream.
		deal: fleet.NewDealer(rand.New(rand.NewSource(cfg.Seed^0x1dfa_cafe)), ids.NewSpace(cfg.Dim)),
	}
	if cfg.KillRestart {
		dir, err := os.MkdirTemp("", "cycloid-chaos-")
		if err != nil {
			return nil, fmt.Errorf("chaosrunner: data root: %w", err)
		}
		r.dataRoot = dir
	}
	for i := 0; i < cfg.Nodes; i++ {
		if err := r.startMember(i); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// close shuts down every live member and removes the run's data root.
func (r *runner) close() {
	for _, m := range r.liveMembers() {
		m.node.Close()
	}
	if r.dataRoot != "" {
		os.RemoveAll(r.dataRoot)
	}
}

// startMember creates member ord and brings it up.
func (r *runner) startMember(ord int) error {
	m := &member{
		ord:  ord,
		name: fmt.Sprintf("n%03d", ord),
		id:   r.deal.Next(),
		reg:  telemetry.NewRegistry("cycloid"),
	}
	if r.dataRoot != "" {
		m.dataDir = filepath.Join(r.dataRoot, m.name)
	}
	if _, err := r.up(m); err != nil {
		return err
	}
	r.members = append(r.members, m)
	return nil
}

// up starts m's node and joins it to the overlay through the first live
// member that admits it, trying them in turn from a position rotating
// with the ordinal. A restart takes the same path: the ID, address,
// data directory and telemetry registry pinned at the first start carry
// over, and re-registration is a lookup, so counters keep their
// pre-kill values. up returns the keys the node served from its own
// store before joining — on a restart, its WAL replay, proof that
// recovery did not depend on re-replication from scratch.
func (r *runner) up(m *member) ([]string, error) {
	pcfg := p2p.Config{
		Dim:         r.cfg.Dim,
		ID:          &m.id,
		ListenAddr:  m.addr,
		DialTimeout: dialTimeout,
		Transport:   r.nw.Host(m.name),
		Replicas:    r.cfg.Replicas,
		Telemetry:   m.reg,
		DataDir:     m.dataDir,
		TraceSample: r.cfg.TraceSample,
	}
	if r.cfg.TraceSample > 0 {
		pcfg.SpanBuffer = 1 << 15
	}
	if r.cfg.Overload {
		// Every member admits so the conservation invariant is checked
		// fleet-wide; only the victim's cap is tight enough to shed.
		// The victim also gets simulated service time: the fabric never
		// sleeps, so without it no handler would ever hold a slot long
		// enough for genuine queue occupancy to build.
		pcfg.MaxInflight = overloadOthersCap
		if m.ord == overloadVictimOrd {
			pcfg.MaxInflight = overloadVictimCap
			pcfg.ServiceDelay = overloadServiceDelay
		}
	}
	nd, err := p2p.Start(pcfg)
	if err != nil {
		return nil, fmt.Errorf("chaosrunner: start %s: %w", m.name, err)
	}
	replayed := nd.Keys()
	if err := fleet.Join(nd, r.liveNodes(), m.ord); err != nil {
		nd.Close()
		return nil, fmt.Errorf("chaosrunner: %s failed to join through any live node: %w", m.name, err)
	}
	m.node, m.addr, m.live = nd, nd.Addr(), true
	return replayed, nil
}

func (r *runner) liveMembers() []*member {
	var out []*member
	for _, m := range r.members {
		if m.live {
			out = append(out, m)
		}
	}
	return out
}

func (r *runner) liveAt(i int) *member {
	live := r.liveMembers()
	return live[i%len(live)]
}

func (r *runner) byOrd(ord int) *member {
	for _, m := range r.members {
		if m.ord == ord {
			return m
		}
	}
	return nil
}

// liveNodes returns the live members' nodes, in member order.
func (r *runner) liveNodes() []*p2p.Node {
	var out []*p2p.Node
	for _, m := range r.liveMembers() {
		out = append(out, m.node)
	}
	return out
}

// bruteOwner is the ground-truth responsible node among live members.
func (r *runner) bruteOwner(t ids.CycloidID) ids.CycloidID {
	live := r.liveMembers()
	best := live[0].id
	for _, m := range live[1:] {
		if r.space.Closer(t, m.id, best) {
			best = m.id
		}
	}
	return best
}

func (r *runner) runRound(round int, sched []Event) RoundReport {
	rep := RoundReport{Round: round}
	violation := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: ", round)+fmt.Sprintf(format, args...))
	}
	from := r.h.Len()
	r.h.Churn()
	var events []Event
	for _, e := range sched {
		if e.Round == round {
			events = append(events, e)
		}
	}

	// Phase 1: inject the round's network fault and probe through it.
	excluded := map[int]bool{} // members that cannot originate probes
	for _, e := range events {
		switch e.Kind {
		case EvDrop:
			r.nw.SetDefaultDrop(e.P)
		case EvLatency:
			if m := r.byOrd(e.Node); m != nil && m.live {
				for _, other := range r.liveMembers() {
					if other != m {
						r.nw.SetLatency(other.name, m.name, 4*dialTimeout)
					}
				}
			}
		case EvPartition:
			live := r.liveMembers()
			var a, b []string
			for i, m := range live {
				if i < len(live)/2 {
					a = append(a, m.name)
				} else {
					b = append(b, m.name)
				}
			}
			r.nw.Partition(a, b)
		case EvBlackhole:
			if m := r.byOrd(e.Node); m != nil && m.live {
				r.nw.Blackhole(m.name)
				excluded[e.Node] = true
			}
		}
	}
	var origins []*member
	for _, m := range r.liveMembers() {
		if !excluded[m.ord] {
			origins = append(origins, m)
		}
	}
	// The probes below are the only routes in flight during phase 1
	// (membership is untouched and stabilization is manual), so the
	// fleet-wide delta of the lookup-timeout counter must equal the
	// summed Route.Timeouts of the probes exactly — a timeout charged
	// twice or dropped by the metrics layer shows up here.
	const timeoutCounter = "cycloid_lookup_timeouts_total"
	phase1 := r.liveMembers()
	var timeoutsBefore uint64
	for _, m := range phase1 {
		timeoutsBefore += m.node.Telemetry().CounterValue(timeoutCounter)
	}
	probeTimeouts := 0
	for i := 0; i < probes; i++ {
		from := origins[(i*7+round)%len(origins)]
		route, err := from.node.Lookup(fmt.Sprintf("probe-%d-%d", round, i))
		probeTimeouts += route.Timeouts
		if err == nil || route.Timeouts > 0 {
			rep.FaultTimeouts += route.Timeouts
		}
	}
	var timeoutsAfter uint64
	for _, m := range phase1 {
		timeoutsAfter += m.node.Telemetry().CounterValue(timeoutCounter)
	}
	if delta := int(timeoutsAfter - timeoutsBefore); delta != probeTimeouts {
		violation("%s advanced by %d for %d probe timeouts", timeoutCounter, delta, probeTimeouts)
	}

	// Phase 2: heal the fabric, then apply the membership event. The
	// round's simultaneous crash count decides whether replication is
	// expected to save the crashed nodes' keys (f < R) or not. The
	// traffic racing this round's churn originates at members that
	// survive the whole round, so every failure is the protocol's to
	// explain; targets freely include the departing nodes.
	r.nw.HealAll()
	crashes, departing := 0, map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case EvCrash:
			crashes++
			departing[e.Node] = true
		case EvLeave, EvLossy, EvKill:
			departing[e.Node] = true
		}
	}
	var survivors []*member
	for _, m := range r.liveMembers() {
		if !departing[m.ord] {
			survivors = append(survivors, m)
		}
	}

	// Traffic racing the churn runs through the membership events below
	// and the stabilization sweeps, the window in which routing tables
	// are in flux, and stops before the phase-4 checks.
	var plan [][]loadgen.Step
	if len(survivors) > 0 {
		plan = append(r.loadPlan(round, survivors), r.streamPlan(round, survivors)...)
	}
	wait := (&loadgen.Exec{History: r.h, Blob: blobOpts, Bitrate: streamBitrateKBps}).Start(plan)

	blobsAtRisk := false
	for _, e := range events {
		switch e.Kind {
		case EvJoin:
			if err := r.startMember(e.Node); err != nil {
				violation("%v", err)
			}
		case EvLeave, EvLossy:
			m := r.byOrd(e.Node)
			if m == nil || !m.live {
				break
			}
			if e.Kind == EvLossy {
				r.nw.SetDefaultDrop(e.P)
			}
			if err := m.node.Leave(); err != nil {
				violation("leave %s: %v", m.name, err)
			}
			m.live = false
			r.nw.HealAll()
		case EvCrash:
			m := r.byOrd(e.Node)
			if m == nil || !m.live {
				break
			}
			// Without replication, keys whose responsible node crashes
			// die with it, exactly as in the paper's store. With R-way
			// replication the run keeps expecting them as long as the
			// round's simultaneous crash count stays below R — the
			// upgraded durability invariant.
			if crashes >= r.cfg.Replicas {
				for _, k := range r.h.Acked(loadgen.OpPut) {
					if r.bruteOwner(r.keyPoint(k)) == m.id {
						r.h.Forfeit(k)
					}
				}
				// Blob chunks scatter across the whole ID space, so a
				// crash set reaching R may have taken some chunk's entire
				// replica set with it. Flag the forfeit; it applies after
				// the round's blob writes drain.
				blobsAtRisk = true
			}
			m.node.Close()
			m.live = false
			// The node is gone for good, and its telemetry registry with
			// it: retire its counter snapshot so a later registry at the
			// same ordinal (there is none today, but the map should not
			// outlive the instruments it describes) cannot be diffed
			// against a dead node's totals.
			delete(r.prevCounters, m.ord)
		case EvKill:
			m := r.byOrd(e.Node)
			if m == nil || !m.live {
				break
			}
			// The process dies but its disk survives. Snapshot what it
			// held and exposed so the restart can prove the WAL replay
			// brought everything back and the reused registry stayed
			// consistent. Expected keys are NOT dropped: replication
			// serves them through the downtime and the reboot restores
			// this copy. (Close flushes the store's tail; the harsher
			// acked-write-only crash cut is covered by the store-level
			// crash tests, which reopen a directory mid-write.)
			m.keysAtKill = m.node.Keys()
			m.famsAtKill = m.reg.Families()
			m.node.Close()
			m.live = false
		case EvRestart:
			m := r.byOrd(e.Node)
			if m == nil || m.live {
				break
			}
			replayed, err := r.up(m)
			if err != nil {
				violation("%v", err)
				break
			}
			// Durability: every key the node held when it was killed must
			// come back from its own disk, before anti-entropy has had a
			// chance to re-replicate anything.
			have := make(map[string]bool, len(replayed))
			for _, k := range replayed {
				have[k] = true
			}
			missing, example := 0, ""
			for _, k := range m.keysAtKill {
				if !have[k] {
					missing++
					if example == "" {
						example = k
					}
				}
			}
			if missing > 0 {
				violation("restarted %s lost %d of %d persisted keys (e.g. %q) across the kill",
					m.name, missing, len(m.keysAtKill), example)
			}
			// Telemetry: the restart re-registers every metric family in
			// the member's reused registry, which must resolve to the
			// existing instruments — no duplicate families, an exposition
			// that still lints clean, and the same family set as before
			// the kill.
			var buf bytes.Buffer
			if err := m.reg.WritePrometheus(&buf); err != nil {
				violation("scraping %s after restart: %v", m.name, err)
			} else if err := telemetry.Lint(buf.Bytes()); err != nil {
				violation("exposition of restarted %s fails lint: %v", m.name, err)
			}
			if fams := m.reg.Families(); len(fams) != len(m.famsAtKill) {
				violation("restarting %s changed its metric families: %d -> %d",
					m.name, len(m.famsAtKill), len(fams))
			}
		}
	}

	// Phase 3: quiescent stabilization window.
	fleet.Stabilize(r.liveNodes(), stabilizeRounds)

	// The traffic that raced the membership events may fail
	// occasionally, but its error rate stays under the bound.
	var load, stream []loadgen.Record
	for _, rec := range wait() {
		if rec.Op == loadgen.OpBlobPut || rec.Op == loadgen.OpBlobGet {
			stream = append(stream, rec)
		} else {
			load = append(load, rec)
		}
	}
	if blobsAtRisk {
		for _, name := range r.h.Acked(loadgen.OpBlobPut) {
			r.h.Forfeit(name)
		}
	}
	rep.LoadOps, rep.LoadErrors = len(load), r.boundErrors("load-during-churn", load, maxLoadErrorRate, violation)

	// Phase 4a: concurrent clean traffic, each client putting fresh keys
	// and reading each back from another node.
	r.h.Barrier()
	clean := make([][]loadgen.Step, clients)
	for g := range clean {
		for i := 0; i < opsPerClient; i++ {
			k := fmt.Sprintf("r%dc%dk%d", round, g, i)
			clean[g] = append(clean[g],
				loadgen.Step{Op: loadgen.OpPut, Node: r.liveAt(g*31 + i).node, Key: k, Value: []byte(k)},
				loadgen.Step{Op: loadgen.OpGet, Node: r.liveAt(g*17 + i + 1).node, Key: k})
		}
	}
	settled := r.x.Start(clean)()

	// Phase 4b: invariants.
	live := r.liveMembers()
	rep.Live = len(live)

	// (1) The readback: every key a live node holds or the history
	// acked, from a node rotating with the round; under R > 1 every
	// acked key from every live node; every acked blob in full, at once
	// (Store.Get, the ReadAt path; viewers cover the sequential path).
	// The checker then holds the round's history to the model
	// (DESIGN.md).
	acked := r.h.Acked(loadgen.OpPut)
	held := make(map[string]bool)
	for _, m := range live {
		for _, k := range m.node.Keys() {
			held[k] = true
		}
	}
	for _, k := range acked {
		held[k] = true
	}
	var readback []loadgen.Step
	for i, k := range slices.Sorted(maps.Keys(held)) {
		readback = append(readback, loadgen.Step{Op: loadgen.OpGet, Node: live[(i+round)%len(live)].node, Key: k})
	}
	if r.cfg.Replicas > 1 {
		for _, k := range acked {
			for _, m := range live {
				readback = append(readback, loadgen.Step{Op: loadgen.OpGet, Node: m.node, Key: k})
			}
		}
	}
	for i, name := range r.h.Acked(loadgen.OpBlobPut) {
		readback = append(readback, loadgen.Step{Op: loadgen.OpBlobRead, Node: live[(i+round)%len(live)].node, Key: name})
	}
	settled = append(settled, r.x.Start([][]loadgen.Step{readback})()...)
	for _, rec := range settled {
		rep.CleanTimeouts += rec.Timeouts
	}
	for _, v := range r.h.Check(from) {
		violation("%s", v)
	}
	if r.cfg.StreamingClients > 0 {
		r.checkStreaming(&rep, stream, live, violation)
	}

	// (2) Lookups from every live node converge to the responsible node.
	for j := 0; j < 4; j++ {
		k := fmt.Sprintf("conv-%d-%d", round, j)
		want := r.bruteOwner(r.keyPoint(k))
		for _, m := range live {
			route, err := m.node.Lookup(k)
			rep.CleanTimeouts += route.Timeouts
			if err != nil {
				violation("lookup %q from %s: %v", k, m.name, err)
			} else if route.Terminal != want {
				violation("lookup %q from %s: terminal %v, want %v", k, m.name, route.Terminal, want)
			}
		}
	}

	// (3) Every live routing table is the one Section 3.1 assigns its
	// node in the live membership, as the simulator's oracle computes it.
	// Dead entries are illegal by construction.
	liveIDs := make([]ids.CycloidID, len(live))
	for i, m := range live {
		liveIDs[i] = m.id
	}
	if oracle, err := Oracle(r.cfg.Dim, liveIDs); err != nil {
		violation("oracle: %v", err)
	} else {
		for _, m := range live {
			for _, d := range Deviations(oracle, m.node.State()) {
				violation("%s %v %s", m.name, m.id, d)
			}
		}
	}

	if w := r.cfg.Trace; w != nil {
		fmt.Fprintf(w, "== round %d: events %v\n", round, events)
		for _, m := range live {
			st := m.node.State()
			fmt.Fprintf(w, "%s %v cub=%s cycL=%s cycS=%s inL=%s inR=%s outL=%s outR=%s keys=%d\n",
				m.name, m.id, weStr(st.Cubical), weStr(st.CyclicL), weStr(st.CyclicS),
				weStr(st.InsideL), weStr(st.InsideR), weStr(st.OutsideL), weStr(st.OutsideR),
				len(m.node.Keys()))
		}
	}

	// (4) Telemetry counters are cumulative: no counter on any member
	// may move backwards between rounds. A regression here means an
	// instrument was reset, re-registered or double-registered.
	if r.prevCounters == nil {
		r.prevCounters = make(map[int]map[string]uint64)
	}
	for _, m := range live {
		now := m.node.Telemetry().CounterValues()
		for name, was := range r.prevCounters[m.ord] {
			if now[name] < was {
				violation("telemetry counter %s on %s went backwards: %d -> %d", name, m.name, was, now[name])
			}
		}
		r.prevCounters[m.ord] = now
	}

	// (5) Timeouts appear only under injected faults.
	if rep.CleanTimeouts != 0 {
		violation("%d timeouts in a healed, stabilized overlay", rep.CleanTimeouts)
	}
	slices.Sort(rep.Violations)
	return rep
}

// loadPlan is the load-during-churn traffic: each client alternates
// Gets on acked keys with lookups of fresh keys.
func (r *runner) loadPlan(round int, origins []*member) [][]loadgen.Step {
	keys := r.h.Acked(loadgen.OpPut)
	plan := make([][]loadgen.Step, r.cfg.LoadClients)
	for g := range plan {
		for i := 0; i < loadOpsPerClient; i++ {
			s := loadgen.Step{Op: loadgen.OpLookup, Node: origins[(g*13+i)%len(origins)].node, Key: fmt.Sprintf("churn-%d-%d-%d", round, g, i)}
			if i%2 == 0 && len(keys) > 0 {
				s.Op, s.Key = loadgen.OpGet, keys[(g*7+i)%len(keys)]
			}
			plan[g] = append(plan[g], s)
		}
	}
	return plan
}

// boundErrors flags the traffic that raced a round's churn when more
// than base of it failed (maxLoadErrorRate or maxStreamErrorRate),
// naming the first failures, and returns the failure count. Membership
// changes mid-request make occasional failures legitimate; past the
// bound churn is breaking routing or the blob layer rather than racing
// it. A request racing a kill fails until stabilization promotes a
// replica, and with a node down for the whole window the transient rate
// runs higher, so kill/restart runs get 0.4. Durability itself is the
// checker's.
func (r *runner) boundErrors(what string, recs []loadgen.Record, base float64, violation func(string, ...any)) int {
	if r.cfg.KillRestart {
		base = 0.4
	}
	failed := loadgen.Failed(recs)
	if rate := float64(len(failed)) / float64(max(len(recs), 1)); rate > base {
		violation("%s error rate %.3f (%d/%d) exceeds %.3f: %s",
			what, rate, len(failed), len(recs), base, loadgen.Summarize(failed, 3))
	}
	return len(failed)
}

// weStr formats a wire entry for trace output.
func weStr(e *p2p.WireEntry) string {
	if e == nil {
		return "-"
	}
	return fmt.Sprintf("(%d,%d)@%s", e.K, e.A, e.Addr)
}

// keyPoint maps an application key onto the ID space with the same
// rule the p2p store uses, so bruteOwner matches actual placement.
func (r *runner) keyPoint(key string) ids.CycloidID {
	return r.space.FromLinear(hashing.KeyString(key, r.space.Size()))
}
