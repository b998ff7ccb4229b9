// Package p2p deploys Cycloid over a pluggable Transport: each Node is
// one overlay participant listening on a transport address (TCP by
// default, the deterministic in-memory fabric of p2p/memnet in tests),
// exchanging binary messages over pooled, multiplexed connections
// (CYCLOID-MUX/2, see wire.go) with its seven neighbors. The routing
// algorithm is the exact code the simulator runs (cycloid.DecideStep);
// this package adds what a deployed system needs around it — a wire
// protocol, the join procedure of Section 3.3.1 (route to the
// numerically closest node, derive leaf sets from its neighborhood,
// local-remote search for the routing table,
// notification fan-out), graceful departure with key hand-off, periodic
// stabilization, and a key/value store with R-way leaf-set replication:
// every key lives on its owner plus up to R-1 leaf-set neighbors, with
// per-key logical versions resolved last-writer-wins, so any f < R
// simultaneous crashes between stabilization windows lose no data (see
// p2p/replicate.go).
//
// Lookups are forwarded: each node on the path makes its local next-hop
// decision and hands the lookup to one of its own seven entries, and the
// answer travels back along the path, so a node only ever contacts its
// neighbors and a crashed neighbor surfaces as a timeout charged by the
// node that forwarded to it, exactly like the paper's timeout metric.
//
// As in the paper (Section 4.4), concurrent lookups/puts/gets are fully
// supported, while membership changes are assumed not to overlap
// ("we assume that multiple join and leave operations do not overlap");
// overlapping joins converge after stabilization.
package p2p

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/internal/hashing"
	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
	"cycloid/p2p/pool"
	"cycloid/p2p/store"
)

// Config parameterizes a live node.
type Config struct {
	// Dim is the Cycloid dimension d; every node of an overlay must use
	// the same value. Default 8.
	Dim int
	// ListenAddr is the TCP address to listen on; ":0" (default) picks an
	// ephemeral port.
	ListenAddr string
	// ID optionally pins the node's overlay ID. When nil the ID is
	// derived by hashing the listen address, the paper's consistent-
	// hashing rule for node identity.
	ID *ids.CycloidID
	// DialTimeout bounds each neighbor contact; a timeout is the live
	// equivalent of the paper's timeout metric. Default 2s.
	DialTimeout time.Duration
	// StabilizeEvery is the periodic stabilization interval; 0 disables
	// the background loop (Stabilize can still be called manually).
	StabilizeEvery time.Duration
	// Transport carries the node's traffic. Nil selects TCP. Tests use
	// p2p/memnet for deterministic in-memory fabrics with fault
	// injection.
	Transport Transport
	// PooledTransport is ignored: every node talks over per-peer
	// pooled, multiplexed connections (p2p/pool).
	//
	// Deprecated: kept so existing callers compile; it has no effect.
	PooledTransport bool
	// WireCodec must be "", "auto" or "binary", which all mean the one
	// wire protocol, CYCLOID-MUX/2; any other value fails Start.
	//
	// Deprecated: kept so existing callers compile; leave it empty.
	WireCodec string
	// Replicas is the replication factor R: every key is stored on its
	// owner plus up to R-1 leaf-set neighbors, so any f < R simultaneous
	// crashes between stabilization windows lose no data. Default 1
	// (no replication). The effective factor is bounded by the distinct
	// leaf-set neighbors available (at most 4 besides the owner).
	Replicas int
	// MaxInflight caps concurrently dispatched wire requests (admission
	// control, p2p/admission.go). Requests beyond the cap wait in a
	// bounded queue; when the queue is full the node sheds load with a
	// typed busy reply carrying a retry-after hint instead of queuing
	// unboundedly. 0 (default) disables admission control. Pings always
	// bypass the cap so liveness probes can tell an overloaded node
	// from a crashed one.
	MaxInflight int
	// QueueDepth bounds the admission wait queue in front of the
	// in-flight cap. 0 defaults to 2*MaxInflight. Only meaningful with
	// MaxInflight > 0.
	QueueDepth int
	// ServiceDelay, when > 0, sleeps that long inside every admitted
	// dispatch, while the admission slot is held. It models real
	// service time on the otherwise wall-clock-free test fabric
	// (p2p/memnet), where handlers complete in microseconds and a tiny
	// in-flight cap could never accumulate genuine queue occupancy —
	// overload harnesses set it on a victim node to make the node
	// measurably saturable. Pings bypass admission and therefore also
	// the delay, so liveness probes stay fast. Only meaningful with
	// MaxInflight > 0; production configurations leave it 0.
	ServiceDelay time.Duration
	// Telemetry receives the node's metrics. Nil creates a private
	// registry with the "cycloid" prefix; either way the instruments are
	// always live and scrapable via Node.Telemetry (recording is atomic
	// ops on preallocated memory, so there is no "off" mode to configure).
	Telemetry *telemetry.Registry
	// Logger receives structured events (joins, departures, suspicion,
	// replica repair). Nil discards them without formatting. The node
	// stamps every record with its own identity, so one process hosting
	// many nodes can share a handler.
	Logger *slog.Logger
	// TraceBuffer is ignored: a route's per-hop facts (phase, candidate
	// rank, demoted and skipped candidates, greedy forwarding) are
	// annotations on its step call spans (TraceSample, /debug/spans).
	//
	// Deprecated: kept so existing callers compile; it has no effect.
	TraceBuffer int
	// TraceSample is the probability in [0,1] that a client operation
	// (Get/Put/Lookup) starts a sampled distributed trace: the node
	// stamps every outbound request of the operation with a 128-bit
	// trace ID so the spans recorded along the cross-node path can be
	// reconstructed into one causal tree (internal/telemetry.BuildTrees,
	// Node.Spans, /debug/spans). Anomalies — shed requests, retry-budget
	// exhaustion, timeouts, greedy fallbacks — force sampling regardless
	// of the rate, so the interesting tail is always captured. 0
	// (default) samples nothing probabilistically; forced sampling still
	// works when SpanBuffer enables span recording.
	TraceSample float64
	// SpanBuffer caps the completed spans retained for collection
	// (Node.Spans, /debug/spans). 0 selects 4096 when tracing is in use
	// (TraceSample > 0) and otherwise leaves span recording off;
	// negative disables span recording entirely, making every tracing
	// hook a nil check.
	SpanBuffer int
	// DataDir enables the durable disk-backed store: key/value state
	// lives in an append-only WAL plus periodic snapshots under this
	// directory, an acknowledged Put is fsync'd before the wire
	// response, and Start replays the directory so a restarted node
	// comes back holding every key it acknowledged. Empty (default)
	// keeps the original in-memory store.
	DataDir string
	// NoFsync keeps the WAL but skips the fsync on the acknowledgement
	// path, trading crash durability for write latency. Only meaningful
	// with DataDir; cycloidd sets it when run with -fsync=false.
	NoFsync bool
	// Store injects a storage backend directly, taking precedence over
	// DataDir. The node serializes all data operations on it; Sync and
	// Close must be safe concurrently (see p2p/store).
	Store store.Store
}

func (c *Config) defaults() {
	if c.Dim == 0 {
		c.Dim = 8
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.Transport == nil {
		c.Transport = TCP
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MaxInflight > 0 && c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MaxInflight
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry("cycloid")
	}
	if c.Logger == nil {
		c.Logger = telemetry.NopLogger()
	}
}

// entry is a routing-state slot: an overlay ID plus the transport address
// it was last seen at.
type entry struct {
	ID   ids.CycloidID
	Addr string
}

// item is one stored value with its replication metadata — see
// store.Item. The alias keeps the replication layer's vocabulary while
// the data itself lives behind the pluggable Store backend.
type item = store.Item

// Node is one live Cycloid participant.
type Node struct {
	cfg   Config
	space ids.Space
	id    ids.CycloidID

	// rs is the published routing state: an immutable value that
	// readers Load once and use without a lock. Writers publish a
	// changed copy under rsMu (editRS), so none loses another's update
	// and no reader ever waits on one.
	rsMu sync.Mutex
	rs   atomic.Pointer[routingState]
	// nbhd is the neighbourhood the last stabilization round gathered
	// (refreshLeafSets): entries and everything in their states.
	nbhd atomic.Pointer[[]entry]

	// mu guards store and nothing else. store is the pluggable key/value
	// backend (p2p/store): the in-memory map by default, the WAL-backed
	// durable store when Config.DataDir is set. Data operations are
	// serialized under mu; store.Sync runs outside mu on acknowledgement
	// paths, batching concurrent acks into one fsync.
	mu    sync.RWMutex
	store store.Store

	// peers is the published peer table (p2p/peers.go): per address,
	// suspicion strikes and the end of an overload window. A published
	// table is never changed: candidate ordering, hints, replica probes
	// and fan-out read it without a lock, and writers publish a changed
	// copy under peersMu (editPeer).
	peersMu sync.Mutex
	peers   atomic.Pointer[map[string]peerHealth]

	// adm is the server-side admission controller, nil when
	// Config.MaxInflight is 0; budget is the client-side token bucket
	// bounding busy retries.
	adm    *admission
	budget *retryBudget

	ln       net.Listener
	addr     string // ln.Addr().String(), cached: it never changes and is on the per-call path
	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup
	rng      *rand.Rand

	// pool carries every outbound call and srv every inbound one.
	pool *pool.Pool
	srv  *pool.Server

	tel *nodeMetrics
	log *slog.Logger

	// spans buffers completed distributed-tracing spans for pull-based
	// collection, nil when span recording is disabled (the tracing hot
	// path is then a single nil check). traceState is the private
	// splitmix64 stream behind span/trace IDs and sampling decisions;
	// traceThreshold is Config.TraceSample mapped onto the uint64 range.
	spans          *telemetry.SpanBuffer
	traceState     atomic.Uint64
	traceThreshold uint64
}

// ErrStopped reports an operation on a closed node.
var ErrStopped = errors.New("p2p: node is stopped")

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("p2p: key not found")

// Start creates a node, binds its listener and begins serving. The node
// initially forms a one-node overlay (all leaf entries self-referencing);
// call Join to enter an existing overlay through any live member.
func Start(cfg Config) (*Node, error) {
	cfg.defaults()
	if cfg.Dim < 2 || cfg.Dim > ids.MaxDim {
		return nil, fmt.Errorf("p2p: dimension %d out of range", cfg.Dim)
	}
	if cfg.Replicas < 1 || cfg.Replicas > 8 {
		return nil, fmt.Errorf("p2p: replication factor %d out of range [1,8]", cfg.Replicas)
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		return nil, fmt.Errorf("p2p: trace sample rate %v out of range [0,1]", cfg.TraceSample)
	}
	switch cfg.WireCodec {
	case "", "auto", "binary":
	default:
		return nil, fmt.Errorf("p2p: unknown wire codec %q (the only protocol is binary)", cfg.WireCodec)
	}
	ln, err := cfg.Transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listen: %w", err)
	}
	space := ids.NewSpace(cfg.Dim)
	var id ids.CycloidID
	if cfg.ID != nil {
		id = *cfg.ID
		if !space.Contains(id) {
			ln.Close()
			return nil, fmt.Errorf("p2p: ID %v outside the %d-dimensional space", id, cfg.Dim)
		}
	} else {
		id = space.FromLinear(hashing.Fold(hashing.HashString(ln.Addr().String()), space.Size()))
	}
	n := &Node{
		cfg:     cfg,
		space:   space,
		id:      id,
		ln:      ln,
		addr:    ln.Addr().String(),
		stopped: make(chan struct{}),
		rng:     rand.New(rand.NewSource(int64(space.Linear(id)) + 1)),
		tel:     newNodeMetrics(cfg.Telemetry),
	}
	n.peers.Store(&map[string]peerHealth{})
	n.budget = newRetryBudget(n.tel)
	if cfg.SpanBuffer >= 0 && (cfg.SpanBuffer > 0 || cfg.TraceSample > 0) {
		n.spans = telemetry.NewSpanBuffer(cmp.Or(cfg.SpanBuffer, 4096))
		switch {
		case cfg.TraceSample >= 1:
			n.traceThreshold = ^uint64(0)
		case cfg.TraceSample > 0:
			n.traceThreshold = uint64(cfg.TraceSample * float64(^uint64(0)))
		}
	}
	// Seeded from the node ID, not the clock, so memnet harnesses get
	// deterministic trace IDs for a given topology and op order. The
	// seed is finalizer-mixed: every node advances the same additive
	// splitmix64 orbit, so the per-node phases must be pseudorandomly
	// far apart — seeding with small linear IDs directly would put
	// nodes a handful of draws apart and make them emit each other's
	// span and trace IDs, silently merging unrelated traces.
	n.traceState.Store(mix(uint64(space.Linear(id))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d))
	if cfg.MaxInflight > 0 {
		n.adm = newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.DialTimeout, n.tel)
	}
	pc := pool.Config{
		Dial:    cfg.Transport.Dial,
		OnEvent: n.tel.poolEvent,
	}
	if cfg.MaxInflight > 0 {
		// A fleet running server-side caps also stops the client side
		// from parking unbounded work on one saturated peer: past this
		// bound the pool fails fast with ErrPeerSaturated, which feeds
		// the retry budget rather than the suspicion list.
		pc.MaxPerPeerInflight = 4 * cfg.MaxInflight
	}
	n.pool = pool.New(pc)
	n.log = cfg.Logger.With("node", id.String(), "addr", ln.Addr().String())
	// The storage backend comes up after telemetry so the durable
	// store's replay is already instrumented, and before serving so the
	// first inbound fetch sees the recovered state.
	switch {
	case cfg.Store != nil:
		n.store = cfg.Store
	case cfg.DataDir != "":
		ds, err := store.Open(cfg.DataDir, store.Options{
			NoFsync: cfg.NoFsync,
			Hooks:   n.tel.storeHooks(),
		})
		if err != nil {
			ln.Close()
			n.pool.Close()
			return nil, fmt.Errorf("p2p: durable store: %w", err)
		}
		n.store = ds
		if keys := ds.Len(); keys > 0 {
			n.log.Info("durable store replayed", "keys", keys, "dir", cfg.DataDir)
		}
	default:
		n.store = store.NewMemory()
	}
	n.updateStoreGaugeLocked()
	self := entry{ID: id, Addr: n.Addr()}
	n.rs.Store(&routingState{insideL: &self, insideR: &self, outsideL: &self, outsideR: &self})
	n.updateLeafGauges()

	n.srv = pool.NewServer(n.serveFrame, cfg.DialTimeout, ErrStopped.Error())
	n.wg.Add(1)
	go n.serve()
	if cfg.StabilizeEvery > 0 {
		n.wg.Add(1)
		go n.stabilizeLoop()
	}
	return n, nil
}

// ID returns the node's overlay identifier.
func (n *Node) ID() ids.CycloidID { return n.id }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.addr }

// Dim returns the overlay dimension.
func (n *Node) Dim() int { return n.space.Dim() }

// MaxFrame returns the wire-frame cap, the protocol constant
// pool.DefaultMaxFrame. Layers above the KV (p2p/blob) validate their
// payload sizing against it at construction instead of discovering the
// limit on the first oversized frame.
func (n *Node) MaxFrame() int { return pool.DefaultMaxFrame }

// PoolStats reports the outbound connection pool's activity snapshot.
// Harnesses use it to assert that canceled work released its in-flight
// slots.
func (n *Node) PoolStats() pool.Stats { return n.pool.Stats() }

// PoolPeers lists the addresses the outbound pool holds connections to,
// sorted. Harnesses use it to check the degree a node keeps on the wire.
func (n *Node) PoolPeers() []string { return n.pool.Peers() }

// Close stops serving without running the departure protocol (an
// ungraceful exit); use Leave for a graceful departure. In-flight
// requests drain: handlers already dispatched complete and write their
// responses, requests arriving after the stop get an explicit error
// frame, and only then are connections (inbound streams and the
// outbound pool) torn down.
func (n *Node) Close() error {
	n.stopOnce.Do(func() {
		close(n.stopped)
		n.ln.Close()
		n.srv.Close()
	})
	n.wg.Wait()
	n.pool.Close()
	// The store closes last, after every handler drained: a durable
	// backend flushes and fsyncs its tail here, so even writes that were
	// applied but not yet individually acked survive a graceful Close.
	return n.store.Close()
}

// isStopped reports whether Close or Leave ran.
func (n *Node) isStopped() bool {
	select {
	case <-n.stopped:
		return true
	default:
		return false
	}
}

// State returns a copy of the node's current routing state, the same
// snapshot peers see over the wire. Harnesses use it to assert table
// invariants (e.g. equality with the simulator's oracle after
// stabilization).
func (n *Node) State() *WireState { return n.wireState() }

// Keys returns the keys currently stored on this node, sorted.
// Harnesses use it to assert that every key held by a live node is
// reachable by lookups.
func (n *Node) Keys() []string {
	n.mu.RLock()
	out := make([]string, 0, n.store.Len())
	n.store.Range(func(k string, _ item) bool {
		out = append(out, k)
		return true
	})
	n.mu.RUnlock()
	sort.Strings(out)
	return out
}

// KeyVersions returns the logical version of every key currently held.
// Harnesses use it to assert that no key's version ever regresses — the
// monotonicity half of the durability contract.
func (n *Node) KeyVersions() map[string]uint64 {
	n.mu.RLock()
	out := make(map[string]uint64, n.store.Len())
	n.store.Range(func(k string, it item) bool {
		out[k] = it.Ver
		return true
	})
	n.mu.RUnlock()
	return out
}

// keyPoint maps an application key onto the overlay's ID space.
func (n *Node) keyPoint(key string) ids.CycloidID {
	return n.space.FromLinear(hashing.KeyString(key, n.space.Size()))
}
