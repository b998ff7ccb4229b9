package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"cycloid/internal/ids"
)

// bench drives one fleet with one schedule's items and holds what is
// needed to check every reply.
type bench struct {
	w     *spec
	items []string
	fl    *fleet

	ref      []ids.CycloidID // lookup: the terminal every origin must reach
	vers     []uint64        // kv_mixed: last version written per key
	filler   []byte          // kv_mixed: value body after the header
	payloads [][]byte        // blob: the blobVariants payloads
	wrote    []int           // blob: variant last written per name
}

func newBench(w *spec, items []string, seed int64, fl *fleet) *bench {
	b := &bench{w: w, items: items, fl: fl}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch {
	case w.blob:
		b.payloads = make([][]byte, blobVariants)
		for i := range b.payloads {
			b.payloads[i] = make([]byte, blobSize)
			r.Read(b.payloads[i])
		}
		b.wrote = make([]int, len(items))
	case w.durable:
		b.filler = make([]byte, kvValueLen)
		r.Read(b.filler)
		b.vers = make([]uint64, len(items))
	}
	return b
}

// kvValue builds the value of version ver of key item: a header naming
// both, then the seeded filler. The node may keep the slice, so each Put
// gets a fresh one.
func (b *bench) kvValue(item uint16, ver uint64) []byte {
	v := make([]byte, kvValueLen)
	copy(v, b.filler)
	binary.LittleEndian.PutUint64(v[0:], uint64(item))
	binary.LittleEndian.PutUint64(v[8:], ver)
	return v
}

func (b *bench) kvValueOK(item uint16, v []byte) bool {
	return len(v) == kvValueLen &&
		binary.LittleEndian.Uint64(v[0:]) == uint64(item) &&
		binary.LittleEndian.Uint64(v[8:]) == b.vers[item] &&
		bytes.Equal(v[16:], b.filler[16:])
}

// do executes one scheduled operation and reports whether the reply was
// verified correct.
func (b *bench) do(e entry) bool {
	ctx := context.Background()
	name := b.items[e.item]
	switch e.op {
	case opLookup:
		r, err := b.fl.nodes[e.origin].Lookup(name)
		return err == nil && r.Terminal == b.ref[e.item]
	case opGet:
		v, _, err := b.fl.nodes[e.origin].Get(name)
		return err == nil && b.kvValueOK(e.item, v)
	case opPut:
		b.vers[e.item]++
		return b.fl.nodes[e.origin].Put(name, b.kvValue(e.item, b.vers[e.item])) == nil
	case opBlobPut:
		b.wrote[e.item] = (b.wrote[e.item] + 1) % blobVariants
		return b.fl.blobs[e.origin].Put(ctx, name, b.payloads[b.wrote[e.item]]) == nil
	case opBlobGet:
		got, err := b.fl.blobs[e.origin].Get(ctx, name)
		return err == nil && bytes.Equal(got, b.payloads[b.wrote[e.item]])
	}
	return false
}

// prepare brings the fleet to the workload's steady state: reference
// terminals for lookups, every key or blob written once otherwise. The
// work is split over the clients by the schedule's parity rule.
func (b *bench) prepare() error {
	if b.w.mix[0] == opLookup {
		return b.referenceTerminals()
	}
	op := opPut
	if b.w.blob {
		op = opBlobPut
	}
	es := make([]entry, len(b.items))
	for i := range es {
		es[i] = entry{origin: uint8(i % fleetSize), op: op, item: uint16(i)}
	}
	if res := b.runWindow(es, clients); len(res.failed) > 0 {
		return fmt.Errorf("preload: %d of %d writes failed", len(res.failed), len(es))
	}
	return nil
}

// referenceTerminals resolves every key from three spread origins and
// fails unless all three reach the same node.
func (b *bench) referenceTerminals() error {
	b.ref = make([]ids.CycloidID, len(b.items))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(b.items); i += clients {
				for j := 0; j < 3; j++ {
					r, err := b.fl.nodes[(i+j*21)%fleetSize].Lookup(b.items[i])
					switch {
					case err != nil:
						errs[c] = fmt.Errorf("reference lookup %q: %w", b.items[i], err)
						return
					case j == 0:
						b.ref[i] = r.Terminal
					case r.Terminal != b.ref[i]:
						errs[c] = fmt.Errorf("lookup of %q ends at %v from one origin and %v from another",
							b.items[i], b.ref[i], r.Terminal)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verifyBlobs reads every blob name back through a node that did not
// necessarily write it and compares it with the last payload written.
func (b *bench) verifyBlobs() error {
	for i, name := range b.items {
		got, err := b.fl.blobs[(i*7+3)%fleetSize].Get(context.Background(), name)
		if err != nil {
			return fmt.Errorf("read back %q: %w", name, err)
		}
		if !bytes.Equal(got, b.payloads[b.wrote[i]]) {
			return fmt.Errorf("read back %q: payload differs from the last one written", name)
		}
	}
	return nil
}

// windowResult is what one window measured, all raw.
type windowResult struct {
	t0         time.Time
	durS       float64
	cpuS       float64 // process user+system time
	mallocs    uint64
	allocBytes uint64
	startNS    []int64 // per entry, in schedule order: call time after t0
	lat        []int64 // per entry: latency in ns
	failed     []int   // entries whose reply was missing or wrong
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWindow executes entries with n closed-loop clients: client c takes
// entries c, c+n, ... and waits for each reply before its next call.
func (b *bench) runWindow(entries []entry, n int) windowResult {
	res := windowResult{startNS: make([]int64, len(entries)), lat: make([]int64, len(entries))}
	failed := make([][]int, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	res.t0 = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(entries); i += n {
				t := time.Now()
				ok := b.do(entries[i])
				res.lat[i] = int64(time.Since(t))
				res.startNS[i] = int64(t.Sub(res.t0))
				if !ok {
					failed[c] = append(failed[c], i)
				}
			}
		}(c)
	}
	wg.Wait()
	res.durS = time.Since(res.t0).Seconds()
	res.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, f := range failed {
		res.failed = append(res.failed, f...)
	}
	return res
}

// latencyStats summarises one window's latencies, in microseconds.
type latencyStats struct {
	p50, p90, p99, max float64
	withinSLO          int
}

// summarise orders a window's latencies. A failed operation counts as
// missing the limit however fast it failed.
func (r *windowResult) summarise(sloNS int64) latencyStats {
	s := slices.Clone(r.lat)
	slices.Sort(s)
	within, _ := slices.BinarySearch(s, sloNS+1)
	for _, i := range r.failed {
		if r.lat[i] <= sloNS {
			within--
		}
	}
	return latencyStats{
		p50:       float64(quantile(s, 0.50)) / 1e3,
		p90:       float64(quantile(s, 0.90)) / 1e3,
		p99:       float64(quantile(s, 0.99)) / 1e3,
		max:       float64(s[len(s)-1]) / 1e3,
		withinSLO: within,
	}
}

// p50Of is the median latency in microseconds of the entries of kind
// op, 0 when the window has none.
func p50Of(entries []entry, lat []int64, op opKind) float64 {
	var s []int64
	for i, e := range entries {
		if e.op == op {
			s = append(s, lat[i])
		}
	}
	slices.Sort(s)
	return float64(quantile(s, 0.50)) / 1e3
}
