// Durable: the disk-backed Store. State lives in memory exactly like
// Memory (reads never touch the disk) and every mutation is appended to
// the active WAL segment before Put/Delete returns to the caller.
// Durability is pushed to the acknowledgement path: Sync flushes and
// fsyncs with group commit — the first waiter performs one fsync
// covering every record appended so far, and concurrent waiters whose
// records that fsync covered return without issuing their own — so N
// in-flight Put acks cost one disk flush, not N.
//
// When the active segment outgrows Options.CompactBytes, the writer
// rolls to a fresh segment and encodes a snapshot of the full state
// covering everything up to the roll. A compaction goroutine then
// writes the snapshot (temp file, fsync, atomic rename) and deletes the
// older segments, off the write path; at most one runs at a time.
// Recovery loads the snapshot, replays the segments it does not cover
// in order with a torn-tail-tolerant decoder, and always starts a
// brand-new segment — it never appends after a possibly-torn tail.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Options parameterizes a Durable store. The zero value is safe:
// fsync on, default compaction threshold.
type Options struct {
	// NoFsync keeps the WAL (writes are still flushed to the OS on
	// Sync) but skips the fsync syscall, trading crash durability for
	// latency. For benchmarks and tests; a production ack path wants
	// the default.
	NoFsync bool
	// CompactBytes rolls the active segment and snapshots once it
	// exceeds this size. Default 4 MiB.
	CompactBytes int64
	// Hooks receives storage events for telemetry; any field may be
	// nil. Keep callbacks cheap: they run inside the store.
	Hooks Hooks
}

// Hooks observes Durable internals without coupling this package to a
// metrics implementation; the p2p layer wires these to its registry.
// Snapshot and Compact fire on the compaction goroutine, Fsync on the
// syncing one, the rest on the goroutine calling into the store.
type Hooks struct {
	// Append fires per WAL record with its encoded size.
	Append func(bytes int)
	// Fsync fires per physical flush with the number of records the
	// group commit covered and the flush latency.
	Fsync func(records int64, d time.Duration)
	// Replay fires once per Open with the records replayed (snapshot +
	// segments) and the time recovery took.
	Replay func(records int, d time.Duration)
	// Snapshot fires per snapshot written, with its record count.
	Snapshot func(records int)
	// Compact fires per compaction with the number of segments removed.
	Compact func(segments int)
	// SegmentBytes reports the active segment's size after each append
	// and roll.
	SegmentBytes func(bytes int64)
}

func (o *Options) defaults() {
	if o.CompactBytes == 0 {
		o.CompactBytes = 4 << 20
	}
}

const (
	snapName    = "snapshot"
	snapTmpName = "snapshot.tmp"
	segPattern  = "wal-%08d.seg"

	// maxRecord caps one WAL record (frame + payload) on both the
	// append and replay paths, so a corrupt length prefix cannot drive
	// an unbounded allocation. It sits comfortably above the wire
	// protocol's 1 MiB frame cap.
	maxRecord = 16 << 20
)

// Durable implements Store over a data directory. Data operations
// follow the package's single-writer contract; Sync and Close are safe
// concurrently with them and with each other.
type Durable struct {
	opts Options
	dir  string

	// wmu guards the writer state below (file handle, buffer, counters)
	// and carries the condition that group commit, compaction and Close
	// wait on. The in-memory map m is NOT under wmu: the caller
	// serializes data operations per the Store contract, and neither
	// Sync nor the compaction goroutine touches m.
	wmu        sync.Mutex
	cond       *sync.Cond
	m          map[string]Item
	f          *os.File
	wbuf       []byte // pending appends not yet written to f
	seg        uint64
	segBytes   int64
	seq        uint64 // records appended over the store's lifetime
	synced     uint64 // records known durable (flushed + fsynced)
	syncing    bool   // a group-commit flush is in flight off-lock
	compacting bool   // a compaction goroutine is writing a snapshot
	closed     bool
	err        error // first unrecoverable writer error, sticky

	enc []byte // scratch record-encoding buffer, reused across appends
}

// Open loads (or creates) the durable store under dir (see replay),
// finishes any cleanup a crash interrupted, and opens a fresh active
// segment numbered after everything seen.
func Open(dir string, opts Options) (*Durable, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	began := time.Now()
	rec, err := replay(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// A crash between a snapshot's rename and the removal of the
	// segments it covers left these behind.
	for _, s := range rec.covered {
		_ = os.Remove(segPath(dir, s))
	}
	d := &Durable{opts: opts, dir: dir, m: rec.m}
	d.cond = sync.NewCond(&d.wmu)
	if err := d.openSegment(rec.maxSeg + 1); err != nil {
		return nil, err
	}
	if h := opts.Hooks.Replay; h != nil {
		h(rec.records, time.Since(began))
	}
	return d, nil
}

// Load replays a data directory read-only and returns the recovered
// state, without creating files or claiming the directory. Tests and
// tooling use it to check what a crash at this instant would preserve;
// it may run while a store on the directory compacts in the background.
func Load(dir string) (map[string]Item, error) {
	rec, err := replay(dir) // rec is zero on error
	return rec.m, err
}

// recovered is the state replay finds in a data directory.
type recovered struct {
	m       map[string]Item
	covered []uint64 // segments the snapshot covers: a crash cut their removal short
	maxSeg  uint64   // highest segment number seen, 0 when none
	records int      // records replayed, snapshot and segments together
}

// replay reads a data directory's state: the snapshot, then every WAL
// segment it does not cover, in order, each tolerant of a torn tail.
// The segments are read before the snapshot. A compaction renames its
// snapshot before it removes a segment, so a segment that vanishes
// between the listing and its read is one the snapshot read afterwards
// covers, and a reader racing a compaction still sees one consistent
// state.
func replay(dir string) (recovered, error) {
	segs, maxSeg, err := listSegments(dir)
	if err != nil {
		return recovered{}, err
	}
	data := make([][]byte, len(segs))
	errs := make([]error, len(segs))
	for i, s := range segs {
		data[i], errs[i] = os.ReadFile(segPath(dir, s))
	}
	rec := recovered{m: make(map[string]Item), maxSeg: maxSeg}
	var minSeg uint64
	if snap, err := os.ReadFile(filepath.Join(dir, snapName)); err == nil {
		if rec.m, minSeg, err = decodeSnapshot(snap, maxRecord); err != nil {
			return recovered{}, err
		}
		rec.records = len(rec.m)
	} else if !os.IsNotExist(err) {
		return recovered{}, err
	}
	for i, s := range segs {
		if s < minSeg {
			rec.covered = append(rec.covered, s)
			continue
		}
		if errs[i] != nil {
			return recovered{}, errs[i]
		}
		n, err := replaySegment(data[i], maxRecord, rec.m)
		if err != nil {
			return recovered{}, fmt.Errorf("segment %d: %w", s, err)
		}
		rec.records += n
	}
	return rec, nil
}

// listSegments returns the WAL segment numbers under dir, ascending,
// plus the highest seen (0 when none).
func listSegments(dir string) ([]uint64, uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	var segs []uint64
	var maxSeg uint64
	for _, e := range ents {
		var n uint64
		if _, serr := fmt.Sscanf(e.Name(), segPattern, &n); serr == nil {
			segs = append(segs, n)
			if n > maxSeg {
				maxSeg = n
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, maxSeg, nil
}

// segPath names WAL segment n under dir.
func segPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf(segPattern, n))
}

// openSegment creates and activates a fresh segment file. Caller holds
// wmu (or owns the store exclusively, as in Open).
func (d *Durable) openSegment(n uint64) error {
	f, err := os.OpenFile(segPath(d.dir, n), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: new segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("store: new segment: %w", err)
	}
	d.f, d.seg, d.segBytes = f, n, int64(len(segMagic))
	if h := d.opts.Hooks.SegmentBytes; h != nil {
		h(d.segBytes)
	}
	return nil
}

func (d *Durable) Get(key string) (Item, bool) { it, ok := d.m[key]; return it, ok }
func (d *Durable) Len() int                    { return len(d.m) }

func (d *Durable) Range(f func(key string, it Item) bool) {
	for k, it := range d.m {
		if !f(k, it) {
			return
		}
	}
}

func (d *Durable) Put(key string, it Item) {
	d.m[key] = it
	d.append(opPut, key, it)
}

func (d *Durable) Delete(key string) {
	if _, ok := d.m[key]; !ok {
		return
	}
	delete(d.m, key)
	d.append(opDel, key, Item{})
}

// SetPromoted updates the memory-only promotion mark; deliberately no
// WAL append — the mark is not state, just dedup bookkeeping.
func (d *Durable) SetPromoted(key string, ver uint64) bool {
	cur, ok := d.m[key]
	if !ok || cur.Ver != ver || cur.Promoted {
		return false
	}
	cur.Promoted = true
	d.m[key] = cur
	return true
}

// append encodes one record into the pending write buffer and rolls
// the segment when it is full. Errors are sticky and surface on the
// next Sync — the in-memory state already advanced, and the ack path is
// where durability failures must be reported.
func (d *Durable) append(op byte, key string, it Item) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.closed {
		d.fail(fmt.Errorf("store: append after close"))
		return
	}
	d.enc = appendRecord(d.enc[:0], op, key, it)
	if len(d.enc) > maxRecord {
		d.fail(fmt.Errorf("store: record for key %q exceeds the %d-byte record cap", key, maxRecord))
		return
	}
	d.wbuf = append(d.wbuf, d.enc...)
	d.seq++
	d.segBytes += int64(len(d.enc))
	if h := d.opts.Hooks.Append; h != nil {
		h(len(d.enc))
	}
	if h := d.opts.Hooks.SegmentBytes; h != nil {
		h(d.segBytes)
	}
	if d.segBytes >= d.opts.CompactBytes && !d.syncing && !d.compacting {
		// Skipped while a group-commit fsync has the file handle off-lock
		// or the last compaction is still running; a later append
		// retries.
		d.rollLocked()
	}
}

// fail records the first writer error; all later Syncs report it.
func (d *Durable) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.cond.Broadcast()
}

// flushLocked writes the pending buffer to the active segment file.
// Caller holds wmu.
func (d *Durable) flushLocked() error {
	if len(d.wbuf) == 0 {
		return nil
	}
	if _, err := d.f.Write(d.wbuf); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	d.wbuf = d.wbuf[:0]
	return nil
}

// Sync makes every record appended before the call durable. Group
// commit: one waiter performs the flush+fsync for everyone whose
// records it covers; waiters arriving mid-flush wait and usually find
// their records already covered when it completes.
func (d *Durable) Sync() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	target := d.seq
	for d.synced < target {
		if d.err != nil {
			return d.err
		}
		if d.closed {
			return fmt.Errorf("store: sync after close")
		}
		if d.syncing {
			d.cond.Wait()
			continue
		}
		d.syncing = true
		upto := d.seq
		err := d.flushLocked()
		var took time.Duration
		if err == nil && !d.opts.NoFsync {
			// fsync off-lock so appends (and therefore the node's write
			// path) keep flowing; d.f cannot change underneath us because
			// the roll skips while syncing is set.
			f := d.f
			began := time.Now()
			d.wmu.Unlock()
			err = f.Sync()
			took = time.Since(began)
			d.wmu.Lock()
		}
		d.syncing = false
		if err != nil {
			d.fail(err)
			return d.err
		}
		if upto > d.synced {
			if h := d.opts.Hooks.Fsync; h != nil {
				h(int64(upto-d.synced), took)
			}
			d.synced = upto
		}
		d.cond.Broadcast()
	}
	return d.err
}

// Compact forces a segment roll + snapshot + old-segment cleanup, the
// same operation the size threshold triggers, and waits for it to
// finish. Callers must hold the same serialization as data operations
// (tests use it to exercise compaction at chosen points).
func (d *Durable) Compact() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	for d.syncing || d.compacting {
		d.cond.Wait()
	}
	if d.closed {
		return fmt.Errorf("store: compact after close")
	}
	d.rollLocked()
	for d.compacting {
		d.cond.Wait()
	}
	return d.err
}

// rollLocked moves the active segment N to N+1, encodes a snapshot of
// the full state covering everything before the roll, and starts the
// compaction goroutine that writes it. Ordering is crash-safe at every
// boundary:
//
//  1. flush + fsync + close segment N, open segment N+1 — a crash here
//     replays the old snapshot + all segments, no loss;
//  2. (compaction goroutine) write the snapshot (minSeg = N+1) to a
//     temp file, fsync, rename — a crash leaves either the old or the
//     new snapshot, both consistent with the segments on disk;
//  3. (compaction goroutine, after the rename returned) delete segments
//     <= N — pure cleanup, retried by the next Open.
//
// Caller holds wmu with syncing and compacting unset; the in-memory map
// is stable because mutations are serialized by the caller of
// Put/Delete.
func (d *Durable) rollLocked() {
	if d.err != nil {
		return
	}
	if err := d.flushLocked(); err != nil {
		d.fail(err)
		return
	}
	if !d.opts.NoFsync {
		if err := d.f.Sync(); err != nil {
			d.fail(fmt.Errorf("store: wal fsync: %w", err))
			return
		}
	}
	if err := d.f.Close(); err != nil {
		d.fail(fmt.Errorf("store: wal close: %w", err))
		return
	}
	oldSeg := d.seg
	if err := d.openSegment(oldSeg + 1); err != nil {
		d.fail(err)
		return
	}
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	snap := encodeSnapshot(d.m, keys, d.seg)
	// Everything up to the roll is in the closed old segment, fsynced
	// as Sync would have; records appended after it (none yet — we hold
	// wmu) are not, so synced advances to the roll point exactly.
	if d.seq > d.synced {
		d.synced = d.seq
	}
	d.compacting = true
	d.cond.Broadcast()
	go d.compact(snap, len(keys), oldSeg)
}

// compact is the compaction goroutine: steps 2 and 3 of rollLocked,
// off the write path. A failure is sticky and surfaces on the next
// Sync.
func (d *Durable) compact(snap []byte, records int, oldSeg uint64) {
	err := writeFileAtomic(d.dir, snapTmpName, snapName, snap, !d.opts.NoFsync)
	if err == nil {
		if h := d.opts.Hooks.Snapshot; h != nil {
			h(records)
		}
		removed := 0
		if segs, _, lerr := listSegments(d.dir); lerr == nil {
			for _, s := range segs {
				if s <= oldSeg && os.Remove(segPath(d.dir, s)) == nil {
					removed++
				}
			}
		}
		if h := d.opts.Hooks.Compact; h != nil {
			h(removed)
		}
	}
	d.wmu.Lock()
	if err != nil {
		d.fail(err)
	}
	d.compacting = false
	d.cond.Broadcast()
	d.wmu.Unlock()
}

// Close waits for a running compaction, then flushes, fsyncs and
// releases the active segment. Safe to call concurrently with Sync;
// double Close is a no-op.
func (d *Durable) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	for d.syncing || d.compacting {
		d.cond.Wait()
	}
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.flushLocked()
	if err == nil && !d.opts.NoFsync {
		err = d.f.Sync()
	}
	if cerr := d.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		d.fail(err)
	} else {
		d.synced = d.seq
	}
	d.cond.Broadcast()
	return err
}

// writeFileAtomic writes data to dir/tmp, optionally fsyncs, and
// renames it over dir/final — readers see the old or the new file,
// never a torn one.
func writeFileAtomic(dir, tmp, final string, data []byte, fsync bool) error {
	tp := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err = f.Write(data); err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tp)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := os.Rename(tp, filepath.Join(dir, final)); err != nil {
		os.Remove(tp)
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}
