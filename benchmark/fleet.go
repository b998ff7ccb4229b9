package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"

	"cycloid/internal/ids"
	"cycloid/p2p"
	"cycloid/p2p/blob"
	"cycloid/p2p/memnet"
	"cycloid/p2p/store"
)

// fleet is one in-process overlay.
type fleet struct {
	nodes []*p2p.Node
	blobs []*blob.Store // per node, blob workloads only
}

// bootFleet starts fleetSize nodes with seeded distinct IDs, joins each
// through a random earlier member and runs three full stabilization
// rounds. dataRoot holds the per-node WAL directories of a durable
// workload. A non-nil tr interposes the traced pass's transport and
// store wrappers and samples every operation into the program's own
// span buffers; the timed run passes nil and runs the plain stack.
func bootFleet(w *spec, dataRoot string, tr *tracer) (*fleet, error) {
	space := ids.NewSpace(fleetDim)
	rng := rand.New(rand.NewSource(topologySeed))
	var fabric *memnet.Network
	if !w.tcp {
		fabric = memnet.New(topologySeed)
	}
	f := &fleet{}
	taken := make(map[uint64]bool)
	for len(f.nodes) < fleetSize {
		v := uint64(rng.Int63n(int64(space.Size())))
		if taken[v] {
			continue
		}
		taken[v] = true
		id := space.FromLinear(v)
		cfg := p2p.Config{
			Dim:             fleetDim,
			ID:              &id,
			PooledTransport: true,
			WireCodec:       "binary",
			Replicas:        replicas,
			TraceBuffer:     -1,
			SpanBuffer:      -1,
		}
		if !w.tcp {
			cfg.Transport = fabric.Host(fmt.Sprintf("n%02d", len(f.nodes)))
		}
		var dir string
		if w.durable {
			dir = filepath.Join(dataRoot, fmt.Sprintf("n%02d", len(f.nodes)))
		}
		if tr == nil {
			cfg.DataDir = dir
		} else {
			base := cfg.Transport
			if base == nil {
				base = p2p.TCP
			}
			cfg.Transport = &tracedTransport{base: base, tr: tr}
			var backing store.Store = store.NewMemory()
			if w.durable {
				d, err := store.Open(dir, store.Options{})
				if err != nil {
					f.close()
					return nil, fmt.Errorf("open store: %w", err)
				}
				backing = d
			}
			cfg.Store = &tracedStore{Store: backing, tr: tr}
			cfg.TraceSample = 1
			cfg.SpanBuffer = 1 << 15
		}
		nd, err := p2p.Start(cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start node %d: %w", len(f.nodes), err)
		}
		// Appended before Join so a failed join still gets closed.
		f.nodes = append(f.nodes, nd)
		if n := len(f.nodes); n > 1 {
			if err := nd.Join(f.nodes[rng.Intn(n-1)].Addr()); err != nil {
				f.close()
				return nil, fmt.Errorf("join node %d: %w", n-1, err)
			}
		}
	}
	for round := 0; round < 3; round++ {
		for _, nd := range f.nodes {
			nd.Stabilize()
		}
	}
	if w.blob {
		for _, nd := range f.nodes {
			bs, err := blob.New(nd, blob.Options{ChunkSize: blobChunk, Window: blobWindow})
			if err != nil {
				f.close()
				return nil, err
			}
			f.blobs = append(f.blobs, bs)
		}
	}
	return f, nil
}

// close stops every node and waits for its goroutines. The first error
// is returned; a durable store reports a failed final flush here.
func (f *fleet) close() error {
	var first error
	for _, nd := range f.nodes {
		if err := nd.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.nodes = nil
	return first
}

// Counter families summed over their labels.
const (
	hopsFamily     = "cycloid_lookup_hops_total"
	requestsFamily = "cycloid_requests_total"
)

// counters sums every counter series over the fleet and returns, beside
// the totals, the wire requests each node has served.
func (f *fleet) counters() (total map[string]uint64, served []uint64) {
	total = make(map[string]uint64)
	served = make([]uint64, len(f.nodes))
	for i, nd := range f.nodes {
		vals := nd.Telemetry().CounterValues()
		for name, v := range vals {
			total[name] += v
		}
		served[i] = sumFamily(vals, requestsFamily)
	}
	return total, served
}

// sumFamily adds up every labelled series of one counter family.
func sumFamily(vals map[string]uint64, family string) uint64 {
	var s uint64
	for name, v := range vals {
		if strings.HasPrefix(name, family+"{") {
			s += v
		}
	}
	return s
}
