package p2p

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cycloid/internal/fleet"
	"cycloid/internal/ids"
	"cycloid/p2p/memnet"
	"cycloid/p2p/store"
)

// durableReplCluster boots n nodes with replication factor r on hosts
// d0, d1, ..., each on a durable disk-backed store under root/<host>.
// It returns the nodes plus each node's host name, so a test can
// restart one with the same identity.
func durableReplCluster(t *testing.T, nw *memnet.Network, root string, dim, n int, seed int64, r int) ([]*Node, []string) {
	t.Helper()
	names := make([]string, n)
	nodes := boot(t, dim, n, seed, func(ord int, id ids.CycloidID) Config {
		names[ord] = fmt.Sprintf("d%d", ord)
		cfg := memConfig(nw, names[ord], dim, id)
		cfg.Replicas = r
		cfg.DataDir = filepath.Join(root, names[ord])
		return cfg
	})
	return nodes, names
}

// TestDurableNodeAckedPutOnDisk pins the ack path contract end to end:
// when Node.Put returns, the write is on disk — a crash at that
// instant (simulated by a read-only store.Load of the live directory)
// preserves it.
func TestDurableNodeAckedPutOnDisk(t *testing.T) {
	nw := memnet.New(81)
	dir := filepath.Join(t.TempDir(), "solo")
	cfg := memConfig(nw, "solo", 5, ids.CycloidID{K: 1, A: 3})
	cfg.DataDir = dir
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	if err := nd.Put("acked", []byte("must-survive")); err != nil {
		t.Fatal(err)
	}
	crash, err := store.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	it, ok := crash["acked"]
	if !ok || string(it.Val) != "must-survive" {
		t.Fatalf("acked put not on disk when Put returned: %+v, %v", it, ok)
	}
	if it.Ver == 0 {
		t.Fatal("persisted item carries no owner-assigned version")
	}
}

// TestDurableNodeRestartRejoin is the full recovery path the durable
// store exists for: kill a key owner, reboot it from its surviving
// data directory with the same ID and address, and require that it
// (a) serves every key it held at the kill from local replay alone,
// before rejoining — no re-replication from scratch; (b) preserves
// every owner-assigned version exactly; (c) rejoins and reconciles so
// the whole overlay reads every key from every node afterwards.
func TestDurableNodeRestartRejoin(t *testing.T) {
	nw := memnet.New(82)
	root := t.TempDir()
	nodes, names := durableReplCluster(t, nw, root, 6, 8, 82, 3)

	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("restart-%d", i)
		if err := nodes[i%len(nodes)].Put(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	fleet.Stabilize(nodes, 2)

	victim := ownerOf(t, nodes, keys[0])
	vi := -1
	for i, nd := range nodes {
		if nd == victim {
			vi = i
		}
	}
	heldAtKill := victim.Keys()
	versAtKill := victim.KeyVersions()
	if len(heldAtKill) == 0 {
		t.Fatal("victim holds nothing; test cannot prove replay")
	}
	addr, id := victim.Addr(), victim.ID()
	victim.Close()

	// During the downtime, replication keeps every key alive on some
	// live node (durability; full availability returns with
	// stabilization, as the crash-retention tests document).
	for _, k := range keys {
		if holdersOf(nodes, k) < 1 {
			t.Fatalf("key %q has no live holder while the owner is down", k)
		}
	}
	// The downtime window: survivors stabilize, evicting the dead
	// incarnation's routing entries — otherwise the rejoin would route
	// to the reborn node's own (reused) address and see its own ID.
	fleet.Stabilize(liveOf(nodes), 2)

	cfg := memConfig(nw, names[vi], 6, id)
	cfg.Replicas = 3
	cfg.DataDir = filepath.Join(root, names[vi])
	cfg.ListenAddr = addr // memnet pins explicit ports, so the address is stable
	reborn, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart from surviving data dir: %v", err)
	}
	defer reborn.Close()

	// (a)+(b): local replay alone restores the full pre-kill key set at
	// the exact pre-kill versions, before any peer is contacted.
	replayedVers := reborn.KeyVersions()
	for _, k := range heldAtKill {
		ver, ok := replayedVers[k]
		if !ok {
			t.Errorf("key %q held at kill is missing after WAL replay", k)
			continue
		}
		if want := versAtKill[k]; ver != want {
			t.Errorf("key %q replayed at version %d, want %d", k, ver, want)
		}
	}
	if reborn.Addr() != addr {
		t.Fatalf("restarted node bound %s, want its old address %s", reborn.Addr(), addr)
	}

	// (c): rejoin, reconcile, and serve — every key from every node.
	if err := reborn.Join(liveOf(nodes)[0].Addr()); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	all := append(liveOf(nodes), reborn)
	fleet.Stabilize(all, 3)
	for _, k := range keys {
		for _, nd := range all {
			v, _, err := nd.Get(k)
			if err != nil {
				t.Fatalf("key %q unreachable from %v after restart + stabilization: %v", k, nd.ID(), err)
			}
			if string(v) != k {
				t.Fatalf("key %q corrupted after restart: %q", k, v)
			}
		}
	}
	// No version regressed anywhere across the cycle.
	for k, was := range versAtKill {
		now := uint64(0)
		for _, nd := range all {
			if v, ok := nd.KeyVersions()[k]; ok && v > now {
				now = v
			}
		}
		if now < was {
			t.Errorf("key %q version regressed across the restart: %d -> %d", k, was, now)
		}
	}
}

// TestPromotionAfterOwnerCrash pins the promote-replica-to-owner path
// on the Store interface: when a key's owner crashes, the surviving
// node that inherits responsibility counts exactly one promotion for
// the copy it now owns — and repeated stabilization sweeps do not
// recount it (the memory-only Promoted mark dedups).
func TestPromotionAfterOwnerCrash(t *testing.T) {
	nw := memnet.New(83)
	root := t.TempDir()
	nodes, _ := durableReplCluster(t, nw, root, 6, 8, 83, 3)

	const key = "promote-me"
	if err := nodes[0].Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	fleet.Stabilize(nodes, 2)
	owner := ownerOf(t, nodes, key)
	owner.Close()

	live := liveOf(nodes)
	fleet.Stabilize(live, 3)
	heir := ownerOf(t, nodes, key)
	if _, ok := heir.localFetch(key, nil); !ok {
		t.Fatalf("new owner %v holds no copy after stabilization", heir.ID())
	}
	const promCounter = "cycloid_replica_promotions_total"
	got := heir.Telemetry().CounterValue(promCounter)
	if got == 0 {
		t.Fatalf("new owner %v counted no promotion for the inherited key", heir.ID())
	}
	// Idempotence: the mark survives further sweeps without recounting.
	fleet.Stabilize(live, 2)
	if again := heir.Telemetry().CounterValue(promCounter); again != got {
		t.Fatalf("promotion recounted by later sweeps: %d -> %d", got, again)
	}
}

// TestReplicaGCOutOfScope pins the garbage-collection path on the
// Store interface: a copy stranded on a node outside the key's replica
// scope is deleted once the owner acknowledges holding the same or a
// newer version — and on a durable backend the delete is a tombstone,
// so a reboot of that node cannot resurrect the collected copy.
func TestReplicaGCOutOfScope(t *testing.T) {
	nw := memnet.New(84)
	root := t.TempDir()
	nodes, names := durableReplCluster(t, nw, root, 6, 10, 84, 1)

	const key = "strand-me"
	if err := nodes[0].Put(key, []byte("owned")); err != nil {
		t.Fatal(err)
	}
	owner := ownerOf(t, nodes, key)
	ownIt, ok := owner.store.Get(key)
	if !ok {
		t.Fatal("owner lost its own key")
	}
	var wrong *Node
	wi := -1
	for i, nd := range nodes {
		if nd != owner && !nd.mayHold(nd.keyPoint(key)) {
			wrong, wi = nd, i
			break
		}
	}
	if wrong == nil {
		t.Skip("every node is in the key's replica scope; cannot strand a copy")
	}

	// Strand a copy of the owner's exact version via the handoff op,
	// which stores unconditionally (it exists for departing nodes).
	if _, err := nodes[0].call(wrong.Addr(), request{Op: "handoff",
		Items: map[string]WireItem{key: {V: ownIt.Val, Ver: ownIt.Ver, Src: ownIt.Src}}}); err != nil {
		t.Fatalf("handoff injection: %v", err)
	}
	if _, ok := wrong.localFetch(key, nil); !ok {
		t.Fatal("handoff did not land the stranded copy")
	}

	const gcCounter = "cycloid_replica_gc_total"
	before := wrong.Telemetry().CounterValue(gcCounter)
	wrong.Stabilize() // anti-entropy: owner acks the version, copy is GC'd
	if _, ok := wrong.localFetch(key, nil); ok {
		t.Fatal("out-of-scope copy survived anti-entropy with an owner ack")
	}
	if after := wrong.Telemetry().CounterValue(gcCounter); after != before+1 {
		t.Fatalf("replica GC counter moved %d -> %d, want exactly one collection", before, after)
	}

	// Tombstone: a reboot of the node replays the WAL and must NOT
	// resurrect the collected copy.
	addr, id := wrong.Addr(), wrong.ID()
	wrong.Close()
	crash, err := store.Load(filepath.Join(root, names[wi]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := crash[key]; ok {
		t.Fatal("GC'd copy still on disk; the delete wrote no tombstone")
	}
	cfg := memConfig(nw, names[wi], 6, id)
	cfg.Replicas = 1
	cfg.DataDir = filepath.Join(root, names[wi])
	cfg.ListenAddr = addr
	reborn, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if _, ok := reborn.localFetch(key, nil); ok {
		t.Fatal("reboot resurrected the GC'd copy")
	}
}

// stallStore makes every Put wait until release is closed or 3 s pass,
// once armed: a disk that stalls under the node's store lock.
type stallStore struct {
	store.Store
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *stallStore) Put(key string, it store.Item) {
	if s.armed.CompareAndSwap(true, false) {
		close(s.entered)
		select {
		case <-s.release:
		case <-time.After(3 * time.Second):
		}
	}
	s.Store.Put(key, it)
}

// TestStoreStallLeavesRoutingAlone pins that routing never waits for
// the store: while one node's Put is stuck in its backend, holding the
// store lock, lookups from other nodes whose routes pass through that
// node still finish promptly and without a single timeout.
func TestStoreStallLeavesRoutingAlone(t *testing.T) {
	const dialTimeout = time.Second
	stall := &stallStore{Store: store.NewMemory(), entered: make(chan struct{}), release: make(chan struct{})}
	nw := memnet.New(61)
	nodes := memCluster(t, nw, 6, 24, 61, func(ord int, c *Config) {
		c.DialTimeout = dialTimeout
		if ord == 5 {
			c.Store = stall
		}
	})
	victim := nodes[5]
	const steps = `cycloid_requests_total{op="step"}`

	// Origin/key pairs whose route crosses the victim without ending
	// there, found by watching its step counter.
	type probe struct {
		from *Node
		key  string
	}
	var probes []probe
	for i := 0; i < 2000 && len(probes) < 20; i++ {
		from, key := nodes[i%len(nodes)], fmt.Sprintf("transit-%d", i)
		if from == victim {
			continue
		}
		before := victim.Telemetry().CounterValue(steps)
		r, err := from.Lookup(key)
		if err == nil && r.Terminal != victim.ID() && victim.Telemetry().CounterValue(steps) > before {
			probes = append(probes, probe{from, key})
		}
	}
	if len(probes) < 5 {
		t.Fatalf("only %d routes cross the victim", len(probes))
	}

	var owned string
	for i := 0; owned == ""; i++ {
		if k := fmt.Sprintf("owned-%d", i); victim.localStep(victim.keyPoint(k), false, nil).Done {
			owned = k
		}
	}
	stall.armed.Store(true)
	putDone := make(chan error, 1)
	go func() { putDone <- victim.Put(owned, []byte("v")) }()
	<-stall.entered

	before := victim.Telemetry().CounterValue(steps)
	for _, p := range probes {
		began := time.Now()
		r, err := p.from.Lookup(p.key)
		if took := time.Since(began); err != nil || r.Timeouts != 0 || took > dialTimeout/4 {
			t.Errorf("lookup %q from %v while the victim's store stalls: %d timeouts in %v, err %v",
				p.key, p.from.ID(), r.Timeouts, took, err)
		}
	}
	if victim.Telemetry().CounterValue(steps) == before {
		t.Error("no lookup stepped through the victim during the stall")
	}
	select {
	case err := <-putDone:
		t.Fatalf("the stalled Put returned (err %v) before the lookups finished", err)
	default:
	}
	close(stall.release)
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
}
