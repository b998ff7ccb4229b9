// Package chaosrunner drives seeded chaos schedules against a live p2p
// overlay running on the deterministic in-memory transport (p2p/memnet)
// and checks the paper-level invariants after every stabilization
// window: stored keys stay retrievable from every live node, lookups
// from every live node converge to the responsible node, routing tables
// hold no dead entries, and timeouts appear only while faults are
// active. The schedule — which faults fire, which nodes join, leave,
// crash — is a pure function of the seed, so a failing run replays
// exactly.
//
// The runner also asserts the members' telemetry stays consistent with
// the routes they report: during the fault phase — the only window in
// which the harness drives every route itself — the fleet-wide delta of
// cycloid_lookup_timeouts_total must equal the summed Route.Timeouts of
// the probes exactly, and every cumulative counter must be monotone
// from round to round.
//
// Each round has four phases:
//
//  1. Fault: inject one network fault (loss, latency, partition,
//     blackhole) and probe the overlay with lookups, accumulating the
//     paper's timeout metric.
//  2. Heal + membership: clear network faults, then apply one
//     membership event (join, graceful leave, leave on a lossy fabric,
//     or an ungraceful crash). With LoadClients > 0, load workers
//     drive gets and lookups concurrently with this phase and the
//     next, and their error rate must stay under a bound the run
//     derives: 0.2, or 0.4 under KillRestart.
//     With KillRestart, crashes become kill/restart cycles: the killed
//     node's data directory survives, and the next round reboots the
//     node from it — the reboot must replay every key the node held at
//     the kill before rejoining, no acked write may vanish, and no
//     key's logical version may regress fleet-wide.
//  3. Stabilize: a quiescent window of synchronous stabilization
//     sweeps.
//  4. Verify: concurrent puts/gets/lookups followed by the invariant
//     checks.
package chaosrunner

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/internal/hashing"
	"cycloid/internal/ids"
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

	// Replicas is the members' replication factor R (default 1, no
	// replication). With R > 1 the run asserts the upgraded durability
	// invariant: keys survive any f < R simultaneous crashes between
	// stabilization windows, and every live node can Get every tracked
	// key after each window.
	Replicas int
	// MultiCrash is the maximum number of simultaneous crashes a single
	// crash event may inflict (default 1). Values > 1 draw the count
	// from the schedule RNG; the default leaves the RNG stream — and
	// therefore every existing seeded schedule — byte-identical.
	MultiCrash int

	// LoadClients > 0 enables load-during-churn: that many workers
	// drive Gets on tracked keys and fresh lookups concurrently with
	// the round's membership events and stabilization sweeps — the
	// window in which routing state is in flux. The run then asserts a
	// bounded error rate over that traffic (see errorBound); key
	// durability is already covered by the per-round retrievability
	// invariants. Default 0 keeps the harness — and every seeded report
	// — exactly as before.
	LoadClients int

	// KillRestart upgrades crash events into kill/restart cycles: the
	// schedule emits EvKill instead of EvCrash, the killed node's data
	// directory survives, and one round later the runner reboots the
	// node from it — same ID, same address, same telemetry registry. A
	// kill whose restart would land past the final round leaves the
	// node down for good. Every member runs on a durable disk-backed
	// store in a run-scoped temporary directory removed when Run
	// returns, and the run asserts the durability invariants: the
	// reboot replays every key the node held at the kill before
	// rejoining, and no key's owner-assigned version regresses
	// fleet-wide. Kill/restart runs should use Replicas greater than
	// the simultaneous kill count so reads stay available during the
	// downtime; the runner keeps expecting a killed node's keys
	// regardless, because its disk — and therefore its copy — survives.
	KillRestart bool

	// TraceSample enables distributed tracing on every member
	// (p2p.Config.TraceSample): each member samples that fraction of its
	// client operations and force-samples anomalies, recording spans
	// into a generous per-member buffer. After the final round the run
	// asserts the trace-completeness invariant: every reconstructed
	// span tree must pass its structural checks (rooted, call counts
	// consistent, server spans only under calls), with detached spans
	// tolerated only when the schedule contains crashes or kills — the
	// only events that can destroy a caller's span buffer. Sampling
	// draws from each node's private span-ID stream, never from the
	// schedule RNG, so enabling tracing leaves every seeded schedule
	// byte-identical.
	TraceSample float64

	// StreamingClients > 0 enables streaming-during-churn: that many
	// workers write fresh chunked blobs (p2p/blob) and play viewer
	// sessions over previously acknowledged ones concurrently with each
	// round's membership events and stabilization sweeps. The run then
	// asserts the blob invariants after every round: zero chunk
	// integrity failures fleet-wide, every acknowledged blob fully
	// readable from a live node (zero lost acked blobs), and bounded
	// error and rebuffer rates over the round's traffic. The knob never
	// touches the schedule RNG, so default schedules stay
	// byte-identical. Streaming runs should use Replicas greater than
	// the simultaneous crash count (or KillRestart, whose disks
	// survive) so acked blobs stay readable through the churn.
	StreamingClients int

	// Overload selects the overload-protection tier instead of the
	// fault schedule: every member runs admission control, member
	// ordinal 0 (the victim) gets a tiny in-flight cap, and Zipf-skewed
	// hot-key traffic is aimed at keys the victim owns while control
	// traffic measures the rest of the cluster. The run asserts the
	// overload invariants — admission conservation (offered ==
	// admitted + shed + queue-timeout, with the victim demonstrably
	// shedding), no acked Put lost while shedding, bounded p99 on
	// admitted control traffic, client retries within the token-bucket
	// ceiling, and the victim still routable (never suspected) once
	// the load stops. Replicas defaults to 2 in this mode so reads
	// survive the victim's shedding via replica fallback. The tier
	// runs no fault schedule, load or streaming workers and no
	// tracing, so Run rejects it combined with KillRestart,
	// LoadClients, StreamingClients, MultiCrash > 1 or TraceSample.
	Overload bool
}

// The harness's fixed workload.
const (
	seedKeys         = 16  // keys seeded before round 1
	stabilizeRounds  = 3   // sweeps per quiescent window
	probes           = 8   // fault-phase lookups per round
	clients          = 4   // concurrent clean-phase workers
	opsPerClient     = 3   // put+get pairs per clean-phase worker
	loadOpsPerClient = 8   // operations per load worker per round
	maxLoadErrorRate = 0.2 // load workers' error bound, see errorBound

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

// errorBound is the highest error rate the traffic racing a round's
// churn may show: base for the load workers (maxLoadErrorRate) or the
// streaming workers (maxStreamErrorRate). Membership changes
// mid-request make occasional failures legitimate; past the bound
// churn is breaking routing or the blob layer rather than racing it. A
// request racing a kill fails until the stabilization window promotes
// a replica, and with a node down for the whole window the transient
// rate runs higher than in crash-only runs, so kill/restart runs get
// 0.4 on either tier. Durability itself is gated by the
// post-stabilization invariants.
func (c *Config) errorBound(base float64) float64 {
	if c.KillRestart {
		return 0.4
	}
	return base
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
	FinalKeys  int // expected keys tracked at the end
	Kills      int // kill events in the schedule (KillRestart runs)
	Restarts   int // restart events in the schedule (KillRestart runs)
	Traces     int // span trees reconstructed post-run (TraceSample > 0)
	Spans      int // spans collected fleet-wide post-run (TraceSample > 0)
	StreamOps  int // streaming attempts across all rounds (StreamingClients > 0)
	Rebuffers  int // rebuffer events across all rounds (StreamingClients > 0)
	AckedBlobs int // blobs acknowledged and verified readable (StreamingClients > 0)

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
	expected map[string][]byte // keys the invariants assert retrievable
	idFor    map[int]ids.CycloidID
	dataRoot string // parent of all member data dirs, "" for in-memory runs

	// prevCounters holds each member's cumulative telemetry snapshot
	// from the previous round, for the monotonicity invariant. Entries
	// of permanently crashed members are pruned: their registries are
	// retired with them, and only kill/restart members carry counters
	// across a downtime.
	prevCounters map[int]map[string]uint64
	// maxVer tracks the highest owner-assigned version ever observed
	// for each key across the whole fleet, for the no-version-regress
	// durability invariant.
	maxVer map[string]uint64

	// ackedBlobs maps every blob name the blob layer acknowledged to its
	// full expected content (streaming tier); each must read back in
	// full after every round — the zero-lost-acked-blobs invariant.
	ackedBlobs map[string][]byte
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
	r, err := start(cfg, sched)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if cfg.Overload {
		r.stabilizeAll(stabilizeRounds)
		return r.runOverload()
	}
	r.stabilizeAll(2)
	for i := 0; i < seedKeys; i++ {
		k := fmt.Sprintf("seed-k%d", i)
		v := []byte(k)
		if err := r.liveAt(i).node.Put(k, v); err != nil {
			return nil, fmt.Errorf("chaosrunner: seeding key %q: %w", k, err)
		}
		r.expected[k] = v
	}
	if cfg.StreamingClients > 0 {
		if err := r.provisionBlobs(); err != nil {
			return nil, err
		}
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
	res.FinalKeys = len(r.expected)
	res.AckedBlobs = len(r.ackedBlobs)
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

// assignIDs deterministically draws n distinct overlay IDs.
func assignIDs(seed int64, space ids.Space, n int) map[int]ids.CycloidID {
	rng := rand.New(rand.NewSource(seed ^ 0x1dfa_cafe))
	taken := make(map[uint64]bool)
	out := make(map[int]ids.CycloidID, n)
	for i := 0; i < n; i++ {
		for {
			v := uint64(rng.Int63n(int64(space.Size())))
			if !taken[v] {
				taken[v] = true
				out[i] = space.FromLinear(v)
				break
			}
		}
	}
	return out
}

// start builds the runner and boots its first cfg.Nodes members. Under
// KillRestart every member's durable store lives in a run-scoped
// temporary directory, which close removes.
func start(cfg Config, sched []Event) (*runner, error) {
	r := &runner{
		cfg:      cfg,
		space:    ids.NewSpace(cfg.Dim),
		nw:       memnet.New(cfg.Seed),
		expected: make(map[string][]byte),
	}
	if cfg.KillRestart {
		dir, err := os.MkdirTemp("", "cycloid-chaos-")
		if err != nil {
			return nil, fmt.Errorf("chaosrunner: data root: %w", err)
		}
		r.dataRoot = dir
	}
	// Pre-assign distinct IDs for every ordinal the schedule can touch,
	// from a seed-derived stream independent of the event stream.
	joins := 0
	for _, e := range sched {
		if e.Kind == EvJoin {
			joins++
		}
	}
	r.idFor = assignIDs(cfg.Seed, r.space, cfg.Nodes+joins)
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
		id:   r.idFor[ord],
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
	if boots := r.liveMembers(); len(boots) > 0 {
		joined := false
		for attempt := 0; attempt < len(boots) && !joined; attempt++ {
			joined = nd.Join(boots[(m.ord+attempt)%len(boots)].node.Addr()) == nil
		}
		if !joined {
			nd.Close()
			return nil, fmt.Errorf("chaosrunner: %s failed to join through any live node", m.name)
		}
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

func (r *runner) stabilizeAll(rounds int) {
	for i := 0; i < rounds; i++ {
		for _, m := range r.liveMembers() {
			m.node.Stabilize()
		}
	}
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
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"round %d: %s advanced by %d for %d probe timeouts", round, timeoutCounter, delta, probeTimeouts))
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

	// Load-during-churn: workers drive Gets on tracked keys and fresh
	// lookups while the membership events below and the stabilization
	// sweeps execute — the window in which routing tables are in flux.
	// The workers stop before the phase-4 invariant checks.
	var loadWG sync.WaitGroup
	var loadOps, loadErrs atomic.Int64
	if r.cfg.LoadClients > 0 {
		keys := make([]string, 0, len(r.expected))
		for k := range r.expected {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(survivors) > 0 {
			for g := 0; g < r.cfg.LoadClients; g++ {
				loadWG.Add(1)
				go func(g int) {
					defer loadWG.Done()
					for i := 0; i < loadOpsPerClient; i++ {
						from := survivors[(g*13+i)%len(survivors)].node
						loadOps.Add(1)
						if i%2 == 0 && len(keys) > 0 {
							if _, _, err := from.Get(keys[(g*7+i)%len(keys)]); err != nil {
								loadErrs.Add(1)
							}
						} else if _, err := from.Lookup(fmt.Sprintf("churn-%d-%d-%d", round, g, i)); err != nil {
							loadErrs.Add(1)
						}
					}
				}(g)
			}
		}
	}

	// Streaming-during-churn: blob writers and paced viewer sessions run
	// through the same window as the load workers. Stats land in sstats
	// (atomics only); checkStreaming promotes them after the workers
	// drain.
	var sstats streamStats
	if r.cfg.StreamingClients > 0 && len(survivors) > 0 {
		r.launchStreaming(round, &loadWG, survivors, &sstats)
	}

	blobsAtRisk := false
	for _, e := range events {
		switch e.Kind {
		case EvJoin:
			if err := r.startMember(e.Node); err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: %v", round, err))
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
				rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: leave %s: %v", round, m.name, err))
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
				for k := range r.expected {
					kp := r.keyPoint(k)
					if r.bruteOwner(kp) == m.id {
						delete(r.expected, k)
					}
				}
				// Blob chunks scatter across the whole ID space, so a
				// crash set reaching R may have taken some chunk's entire
				// replica set with it. Flag the drop; it applies after the
				// workers (which still mutate the acked set) drain.
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
				rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: %v", round, err))
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
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"round %d: restarted %s lost %d of %d persisted keys (e.g. %q) across the kill",
					round, m.name, missing, len(m.keysAtKill), example))
			}
			// Telemetry: the restart re-registers every metric family in
			// the member's reused registry, which must resolve to the
			// existing instruments — no duplicate families, an exposition
			// that still lints clean, and the same family set as before
			// the kill.
			var buf bytes.Buffer
			if err := m.reg.WritePrometheus(&buf); err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"round %d: scraping %s after restart: %v", round, m.name, err))
			} else if err := telemetry.Lint(buf.Bytes()); err != nil {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"round %d: exposition of restarted %s fails lint: %v", round, m.name, err))
			}
			if fams := m.reg.Families(); len(fams) != len(m.famsAtKill) {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"round %d: restarting %s changed its metric families: %d -> %d",
					round, m.name, len(m.famsAtKill), len(fams)))
			}
		}
	}

	// Phase 3: quiescent stabilization window.
	r.stabilizeAll(stabilizeRounds)

	var cleanTimeouts atomic.Int64
	var vmu sync.Mutex
	violation := func(format string, args ...any) {
		vmu.Lock()
		rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: ", round)+fmt.Sprintf(format, args...))
		vmu.Unlock()
	}

	// The load-during-churn invariant: the traffic that raced the
	// membership events may fail occasionally, but its error rate stays
	// under the bound.
	loadWG.Wait()
	if blobsAtRisk {
		r.dropAckedBlobs()
	}
	rep.LoadOps = int(loadOps.Load())
	rep.LoadErrors = int(loadErrs.Load())
	if rep.LoadOps > 0 {
		if rate, bound := float64(rep.LoadErrors)/float64(rep.LoadOps), r.cfg.errorBound(maxLoadErrorRate); rate > bound {
			violation("load-during-churn error rate %.3f (%d/%d) exceeds %.3f",
				rate, rep.LoadErrors, rep.LoadOps, bound)
		}
	}

	// Phase 4a: concurrent clean traffic — puts, gets, lookups.
	var wg sync.WaitGroup
	type putKV struct {
		k string
		v []byte
	}
	puts := make(chan putKV, clients*opsPerClient)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				k := fmt.Sprintf("r%dc%dk%d", round, g, i)
				v := []byte(k)
				nd := r.liveAt(g*31 + i).node
				if err := nd.Put(k, v); err != nil {
					violation("concurrent put %q: %v", k, err)
					continue
				}
				puts <- putKV{k, v}
				got, route, err := r.liveAt(g*17 + i + 1).node.Get(k)
				cleanTimeouts.Add(int64(route.Timeouts))
				if err != nil {
					violation("concurrent get %q: %v", k, err)
				} else if string(got) != k {
					violation("concurrent get %q returned %q", k, got)
				}
			}
		}(g)
	}
	wg.Wait()
	close(puts)
	for p := range puts {
		r.expected[p.k] = p.v
	}

	// Phase 4b: invariants.
	live := r.liveMembers()
	rep.Live = len(live)

	// (1) Every key stored on a live node — and every key the run still
	// tracks — is retrievable from any live node.
	holder := make(map[string]string) // key -> host holding it
	checkKeys := make(map[string]bool)
	for _, m := range live {
		for _, k := range m.node.Keys() {
			holder[k] = m.name
			checkKeys[k] = true
		}
	}
	for k := range r.expected {
		checkKeys[k] = true
	}
	keys := make([]string, 0, len(checkKeys))
	for k := range checkKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		m := live[(i+round)%len(live)]
		v, route, err := m.node.Get(k)
		cleanTimeouts.Add(int64(route.Timeouts))
		where, held := holder[k]
		if !held {
			where = "no live node"
		}
		if err != nil {
			violation("key %q unreachable (get from %s, held by %s): %v", k, m.name, where, err)
		} else if want, tracked := r.expected[k]; tracked && string(v) != string(want) {
			violation("key %q corrupted: %q", k, v)
		}
	}

	// (1b) With replication on, the durability invariant is stronger:
	// every tracked key must be retrievable from EVERY live node, not
	// just a rotating sample — reads must survive the round's crashes
	// from any vantage point once the stabilization window closed.
	if r.cfg.Replicas > 1 {
		tracked := make([]string, 0, len(r.expected))
		for k := range r.expected {
			tracked = append(tracked, k)
		}
		sort.Strings(tracked)
		for _, k := range tracked {
			want := r.expected[k]
			for _, m := range live {
				v, route, err := m.node.Get(k)
				cleanTimeouts.Add(int64(route.Timeouts))
				if err != nil {
					violation("key %q unreachable from %s under R=%d: %v", k, m.name, r.cfg.Replicas, err)
				} else if string(v) != string(want) {
					violation("key %q corrupted at %s: %q", k, m.name, v)
				}
			}
		}
	}

	// (1c) Owner-assigned versions never regress fleet-wide: the highest
	// version any live node reports for a key must be at least the
	// highest ever observed. A regression means a restart replayed stale
	// state over newer writes, or anti-entropy resurrected an old value.
	// Keys no live node currently holds are skipped, not failed — a
	// holder may legitimately be mid-downtime.
	if r.maxVer == nil {
		r.maxVer = make(map[string]uint64)
	}
	roundMax := make(map[string]uint64)
	for _, m := range live {
		for k, v := range m.node.KeyVersions() {
			if v > roundMax[k] {
				roundMax[k] = v
			}
		}
	}
	for k, was := range r.maxVer {
		if now, ok := roundMax[k]; ok && now < was {
			violation("key %q version regressed fleet-wide: %d -> %d", k, was, now)
		}
	}
	for k, v := range roundMax {
		if v > r.maxVer[k] {
			r.maxVer[k] = v
		}
	}

	// (1d) Streaming-during-churn: bounded error and rebuffer rates over
	// the traffic that raced the churn, zero chunk integrity failures
	// fleet-wide, and every acknowledged blob readable in full from a
	// live node.
	if r.cfg.StreamingClients > 0 {
		r.checkStreaming(round, &rep, &sstats, live, violation)
	}

	// (2) Lookups from every live node converge to the responsible node.
	for j := 0; j < 4; j++ {
		k := fmt.Sprintf("conv-%d-%d", round, j)
		want := r.bruteOwner(r.keyPoint(k))
		for _, m := range live {
			route, err := m.node.Lookup(k)
			cleanTimeouts.Add(int64(route.Timeouts))
			if err != nil {
				violation("lookup %q from %s: %v", k, m.name, err)
			} else if route.Terminal != want {
				violation("lookup %q from %s: terminal %v, want %v", k, m.name, route.Terminal, want)
			}
		}
	}

	// (3) No dead entries in any live routing table.
	liveAddr := make(map[string]bool, len(live))
	for _, m := range live {
		liveAddr[m.node.Addr()] = true
	}
	for _, m := range live {
		st := m.node.State()
		slots := map[string]*p2p.WireEntry{
			"cubical": st.Cubical, "cyclicL": st.CyclicL, "cyclicS": st.CyclicS,
			"insideL": st.InsideL, "insideR": st.InsideR,
			"outsideL": st.OutsideL, "outsideR": st.OutsideR,
		}
		names := make([]string, 0, len(slots))
		for name := range slots {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if e := slots[name]; e != nil && !liveAddr[e.Addr] {
				violation("%s holds dead %s entry %s", m.name, name, e.Addr)
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
	rep.CleanTimeouts = int(cleanTimeouts.Load())
	if rep.CleanTimeouts != 0 {
		violation("%d timeouts in a healed, stabilized overlay", rep.CleanTimeouts)
	}
	sort.Strings(rep.Violations)
	return rep
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
