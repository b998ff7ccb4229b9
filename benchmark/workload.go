package main

import (
	"fmt"
	"math/rand"
)

// Fixed shape of every run. These are the benchmark's definition, not
// options: changing one makes numbers incomparable with earlier ones.
const (
	fleetSize = 64
	fleetDim  = 6
	replicas  = 3
	clients   = 2 // closed loop: each waits for its reply before sending again

	// topologySeed fixes node IDs, join order and the names of the keys
	// and blobs. The overlay's shape and the points the keys hash to set
	// the mean path length, so they are part of the benchmark like the
	// node count; -seed varies the traffic: who asks for what, in which
	// order.
	topologySeed = 20040426

	kvKeys     = 4096
	kvValueLen = 1 << 10
	blobNames  = 32
	blobSize   = 1 << 20
	blobChunk  = 64 << 10
	blobWindow = 8
	// blobVariants distinct payloads are generated; successive writes
	// of one name cycle through them, so a stale read is detectable.
	blobVariants = 8

	// nominalWindowS is what one measured window takes at the seed on
	// the reference host. -seconds is converted to a window count with
	// it; a window is a fixed amount of work, never a fixed time.
	nominalWindowS = 1.5
	minWindows     = 8
)

type opKind uint8

const (
	opLookup opKind = iota
	opGet
	opPut
	opBlobPut
	opBlobGet
)

// spec describes one workload.
type spec struct {
	name      string
	why       string
	tcp       bool // loopback TCP; otherwise p2p/memnet
	durable   bool // WAL-backed store with fsync on
	blob      bool
	items     int   // keys or blob names
	windowOps int   // operations per window
	sloNS     int64 // raw-latency limit behind slo_ok_ratio
	// mix is the operation mix: the kinds are dealt in these proportions.
	mix []opKind
}

var workloads = []*spec{
	{
		name:  "lookup",
		why:   "the paper's path-length experiment on the live stack (memnet): ~6 wire exchanges per op and nothing else, so routing decision, codec, pool and dispatch do all the work and store, blob and kernel none",
		items: kvKeys, windowOps: 60_000, sloNS: 600_000,
		mix: []opKind{opLookup},
	},
	{
		name:    "kv_mixed",
		why:     "80% Get / 20% Put of 1 KiB on the durable store: the only workload where R=3 fan-out, Node.mu, WAL append, group commit and compaction sit on the ack path, with reads beside writes",
		durable: true, items: kvKeys, windowOps: 16_000, sloNS: 4_000_000,
		mix: []opKind{opPut, opGet, opGet, opGet, opGet},
	},
	{
		name: "blob_write",
		why:  "1 MiB blob rewrites over loopback TCP: byte-rate-bound, so chunking, SHA-256, 64 KiB frames through codec and pool buffers, x3 replication and kernel copies dominate and routing is under 10% of CPU",
		tcp:  true, blob: true, items: blobNames, windowOps: 250, sloNS: 100_000_000,
		mix: []opKind{opBlobPut},
	},
	{
		name: "blob_read",
		why:  "1 MiB blob reads over loopback TCP: blob_write's layers used the other way (windowed prefetch, digest verify, no fan-out), so a reader gain that costs writers shows as one workload up, one down",
		tcp:  true, blob: true, items: blobNames, windowOps: 600, sloNS: 45_000_000,
		mix: []opKind{opBlobGet},
	},
}

func workloadByName(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// entry is one scheduled operation.
type entry struct {
	origin uint8 // node the client calls
	op     opKind
	item   uint16 // index into the workload's keys or names
}

// schedule is everything a run feeds the program: item names and, per
// window, the operations in order. The windows are a pure function of
// (workload, seed, windows, windowOps); the names depend on the workload
// alone.
type schedule struct {
	items   []string
	windows [][]entry
}

// deck deals the numbers 0..n-1 in a seeded random order, reshuffling
// each time it runs out. Drawing origins, items and operation kinds from
// decks keeps them uniform, as independent draws would, but balanced:
// every node originates, and every key is asked for, equally often to
// within one deal. A lookup's path length depends strongly on where it
// starts, so with independent draws hops_per_op would wander by about
// 1 % from seed to seed for no reason in the program.
type deck struct {
	cards []int
	next  int
}

func newDeck(n int) *deck {
	d := &deck{cards: make([]int, n)}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw(r *rand.Rand) int {
	if d.next == 0 {
		r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

// newSchedule pregenerates the whole run. Client c executes entries
// c, c+clients, ... of each window, and entry i only ever names an item
// with index = i mod clients, so no two clients touch the same key or
// name and every count is independent of how the clients interleave.
func newSchedule(w *spec, seed int64, windows, windowOps int) *schedule {
	s := &schedule{items: make([]string, w.items), windows: make([][]entry, windows)}
	names := rand.New(rand.NewSource(topologySeed))
	for i := range s.items {
		s.items[i] = fmt.Sprintf("%s-%08x-%04d", w.name, names.Uint32(), i)
	}
	r := rand.New(rand.NewSource(seed))
	origins, kinds := newDeck(fleetSize), newDeck(len(w.mix))
	var items [clients]*deck // one per client: its share of the items
	for c := range items {
		items[c] = newDeck(w.items / clients)
	}
	for wi := range s.windows {
		es := make([]entry, windowOps)
		for i := range es {
			c := i % clients
			es[i] = entry{
				origin: uint8(origins.draw(r)),
				op:     w.mix[kinds.draw(r)],
				item:   uint16(clients*items[c].draw(r) + c),
			}
		}
		s.windows[wi] = es
	}
	return s
}
