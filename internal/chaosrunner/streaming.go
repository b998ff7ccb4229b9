// Streaming-during-churn: the chaos tier for the chunked blob layer.
// While the regular schedule joins, crashes, kills and restarts nodes,
// streaming workers keep writing fresh blobs and playing paced viewer
// sessions over previously acknowledged ones — the workload whose SLOs
// (integrity, rebuffers) the blob layer exists to protect. The round
// then asserts the blob invariants: no chunk ever fails its digest
// check fleet-wide, every acknowledged blob reads back in full from a
// live node, and the rebuffer rate over completed sessions stays under
// the configured bound.
//
// Like load-during-churn, none of this touches the schedule RNG: the
// same seed produces the same event schedule with streaming on or off,
// and a failing run replays exactly.
package chaosrunner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/p2p/blob"
)

// streamStats accumulates one round's streaming traffic outcome across
// workers. Violation-worthy conditions are tallied here and promoted to
// violations after the workers drain — workers never touch the report
// directly.
type streamStats struct {
	ops       atomic.Int64 // attempts: blob writes + viewer sessions
	errs      atomic.Int64 // attempts that failed
	sessions  atomic.Int64 // viewer sessions completed
	rebuffers atomic.Int64 // chunks past their playout deadline
	integrity atomic.Int64 // typed integrity failures observed by viewers
}

// The tier's fixed workload and bounds.
const (
	streamSessions  = 2 // viewer sessions each worker plays per round
	streamChunkSize = 2048
	// streamBlobSize is the byte length of every blob the tier writes:
	// six small chunks, so blobs span many keys without bloating the run.
	streamBlobSize     = 6 * streamChunkSize
	streamBitrateKBps  = 512  // viewer playout pace for rebuffer accounting
	maxStreamErrorRate = 0.25 // failed writes+sessions per attempt, see errorBound
	maxRebufferRate    = 2.0  // rebuffers per completed session
)

// blobOpts is the tier's blob geometry: small chunks and a viewer
// prefetch window of four.
var blobOpts = blob.Options{ChunkSize: streamChunkSize, Window: 4}

// blobContent derives a blob's deterministic payload from its name: a
// SHA-256 chain, so contents are incompressible-ish, name-unique, and
// reproducible by any round's verifier without shared state.
func blobContent(name string, n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	sum := sha256.Sum256([]byte(name))
	for len(out) < n {
		out = append(out, sum[:]...)
		sum = sha256.Sum256(sum[:])
	}
	return out[:n]
}

// provisionBlobs seeds the initial blob population before round 1,
// outside any fault window. Every provisioned blob is acknowledged and
// therefore covered by the zero-lost-acked-blobs invariant.
func (r *runner) provisionBlobs() error {
	r.ackedBlobs = make(map[string][]byte)
	for i := 0; i < r.cfg.StreamingClients; i++ {
		name := fmt.Sprintf("blob-seed-%d", i)
		content := blobContent(name, streamBlobSize)
		bs, err := blob.New(r.liveAt(i).node, blobOpts)
		if err != nil {
			return fmt.Errorf("chaosrunner: blob store: %w", err)
		}
		if err := bs.Put(context.Background(), name, content); err != nil {
			return fmt.Errorf("chaosrunner: provisioning blob %q: %w", name, err)
		}
		r.ackedBlobs[name] = content
	}
	return nil
}

// launchStreaming starts the round's streaming workers on wg. Each
// worker writes one fresh blob (acknowledged writes join the tracked
// set) and then plays viewer sessions over blobs acknowledged before
// this round. Origins are members that survive the whole round, so
// every failure is the protocol's to explain.
func (r *runner) launchStreaming(round int, wg *sync.WaitGroup, origins []*member, st *streamStats) {
	ackedNames := make([]string, 0, len(r.ackedBlobs))
	for name := range r.ackedBlobs {
		ackedNames = append(ackedNames, name)
	}
	sort.Strings(ackedNames)
	var ackedMu sync.Mutex

	for g := 0; g < r.cfg.StreamingClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			origin := origins[g%len(origins)]
			bs, err := blob.New(origin.node, blobOpts)
			if err != nil {
				st.ops.Add(1)
				st.errs.Add(1)
				return
			}
			name := fmt.Sprintf("blob-r%d-g%d", round, g)
			content := blobContent(name, streamBlobSize)
			st.ops.Add(1)
			if err := bs.Put(context.Background(), name, content); err != nil {
				st.errs.Add(1)
			} else {
				ackedMu.Lock()
				r.ackedBlobs[name] = content
				ackedMu.Unlock()
			}
			for s := 0; s < streamSessions && len(ackedNames) > 0; s++ {
				target := ackedNames[(g*5+s)%len(ackedNames)]
				viewer := origins[(g+s+1)%len(origins)]
				st.ops.Add(1)
				r.playBlob(viewer, target, st)
			}
		}(g)
	}
}

// playBlob plays one paced viewer session: sequential reads through the
// prefetching blob reader with a playout deadline per chunk. Chunk i is
// due one chunk-duration after chunk i-1's playout started; a late
// chunk counts one rebuffer and rebases the playout clock.
func (r *runner) playBlob(viewer *member, name string, st *streamStats) {
	bs, err := blob.New(viewer.node, blobOpts)
	if err != nil {
		st.errs.Add(1)
		return
	}
	rd, err := bs.Open(context.Background(), name)
	if err != nil {
		st.errs.Add(1)
		return
	}
	defer rd.Close()
	chunkDur := time.Duration(float64(streamChunkSize) /
		float64(streamBitrateKBps<<10) * float64(time.Second))
	buf := make([]byte, streamChunkSize)
	var playStart time.Time
	for seq := 0; ; seq++ {
		if seq > 0 {
			if wait := time.Until(playStart.Add(time.Duration(seq-1) * chunkDur)); wait > 0 {
				time.Sleep(wait)
			}
		}
		_, err := io.ReadFull(rd, buf)
		if err == io.EOF {
			break
		}
		now := time.Now()
		if err != nil && err != io.ErrUnexpectedEOF {
			var ie *blob.IntegrityError
			if errors.As(err, &ie) {
				st.integrity.Add(1)
			}
			st.errs.Add(1)
			return
		}
		if seq == 0 {
			playStart = now
		} else if late := now.Sub(playStart.Add(time.Duration(seq) * chunkDur)); late > 0 {
			st.rebuffers.Add(1)
			bs.RecordRebuffer()
			playStart = playStart.Add(late)
		}
		if err == io.ErrUnexpectedEOF {
			break
		}
	}
	st.sessions.Add(1)
}

// checkStreaming promotes the round's streaming outcome into report
// fields and invariant violations: bounded error rate, bounded rebuffer
// rate over completed sessions, zero typed integrity failures observed
// by viewers, zero fleet-wide digest-failure counter movement, and
// every acknowledged blob readable in full from a live node.
func (r *runner) checkStreaming(round int, rep *RoundReport, st *streamStats, live []*member,
	violation func(format string, args ...any)) {
	rep.StreamOps = int(st.ops.Load())
	rep.StreamErrors = int(st.errs.Load())
	rep.Rebuffers = int(st.rebuffers.Load())
	if rep.StreamOps > 0 {
		if rate, bound := float64(rep.StreamErrors)/float64(rep.StreamOps), r.cfg.errorBound(maxStreamErrorRate); rate > bound {
			violation("streaming-during-churn error rate %.3f (%d/%d) exceeds %.3f",
				rate, rep.StreamErrors, rep.StreamOps, bound)
		}
	}
	if n := st.integrity.Load(); n > 0 {
		violation("%d chunk integrity failures observed by viewers", n)
	}
	if s := st.sessions.Load(); s > 0 {
		if rate := float64(rep.Rebuffers) / float64(s); rate > maxRebufferRate {
			violation("rebuffer rate %.2f/session (%d over %d sessions) exceeds %.2f",
				rate, rep.Rebuffers, s, maxRebufferRate)
		}
	}

	// Fleet-wide, the digest-failure counter must never move: a failure
	// any viewer retried past would still show here.
	var integ uint64
	for _, m := range live {
		integ += m.node.Telemetry().CounterValue("cycloid_blob_integrity_failures_total")
	}
	if integ > 0 {
		violation("cycloid_blob_integrity_failures_total is %d fleet-wide; must stay 0", integ)
	}

	// Zero lost acked blobs: every acknowledged blob reads back in full,
	// from a vantage point rotating with the round.
	names := make([]string, 0, len(r.ackedBlobs))
	for name := range r.ackedBlobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		m := live[(i+round)%len(live)]
		bs, err := blob.New(m.node, blobOpts)
		if err != nil {
			violation("blob store on %s: %v", m.name, err)
			continue
		}
		got, err := bs.Get(context.Background(), name)
		if err != nil {
			violation("acked blob %q unreadable from %s: %v", name, m.name, err)
		} else if !bytes.Equal(got, r.ackedBlobs[name]) {
			violation("acked blob %q corrupted reading from %s: %d bytes, want %d",
				name, m.name, len(got), len(r.ackedBlobs[name]))
		}
	}
}

// dropAckedBlobs conservatively untracks every acknowledged blob. It
// runs only when a round's simultaneous crash count reaches the
// replication factor without surviving disks — the same condition under
// which plain keys are dropped — since any chunk's whole replica set
// may have died with the crashed nodes.
func (r *runner) dropAckedBlobs() {
	for name := range r.ackedBlobs {
		delete(r.ackedBlobs, name)
	}
}
