// Streaming-during-churn: the chaos tier for the chunked blob layer.
// While the regular schedule joins, crashes, kills and restarts nodes,
// streaming clients keep writing fresh blobs and playing paced viewer
// sessions over previously acknowledged ones — the workload whose SLOs
// (integrity, rebuffers) the blob layer exists to protect. Every
// acknowledged blob is read back in full after each round (see
// runRound), and the round asserts the streaming bounds: no chunk ever
// fails its digest check fleet-wide, and the error rate and the
// rebuffer rate over completed sessions stay bounded.
//
// Like load-during-churn, none of this touches the schedule RNG: the
// same seed produces the same event schedule with streaming on or off,
// and a failing run replays exactly.
package chaosrunner

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"cycloid/internal/loadgen"
	"cycloid/p2p/blob"
)

// The tier's fixed workload and bounds.
const (
	streamSessions  = 2 // viewer sessions each client plays per round
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

// streamPlan is the streaming-during-churn traffic: each client writes
// one fresh blob, then plays viewer sessions over blobs acknowledged
// before this round.
func (r *runner) streamPlan(round int, origins []*member) [][]loadgen.Step {
	acked := r.h.Acked(loadgen.OpBlobPut)
	plan := make([][]loadgen.Step, r.cfg.StreamingClients)
	for g := range plan {
		name := fmt.Sprintf("blob-r%d-g%d", round, g)
		plan[g] = []loadgen.Step{{Op: loadgen.OpBlobPut, Node: origins[g%len(origins)].node, Key: name, Value: blobContent(name, streamBlobSize)}}
		for s := 0; s < streamSessions && len(acked) > 0; s++ {
			plan[g] = append(plan[g], loadgen.Step{Op: loadgen.OpBlobGet, Node: origins[(g+s+1)%len(origins)].node, Key: acked[(g*5+s)%len(acked)]})
		}
	}
	return plan
}

// checkStreaming promotes the round's streaming records into report
// fields and checks the streaming bounds: error rate, rebuffer rate
// over completed sessions, zero typed integrity failures observed by
// viewers, and zero fleet-wide digest-failure counter movement.
func (r *runner) checkStreaming(rep *RoundReport, recs []loadgen.Record, live []*member, violation func(string, ...any)) {
	rep.StreamOps = len(recs)
	rep.StreamErrors = r.boundErrors("streaming-during-churn", recs, maxStreamErrorRate, violation)
	ss := loadgen.SessionStats(recs)
	rep.Rebuffers = ss.Rebuffers
	var integrity []loadgen.Record
	for _, rec := range recs {
		var ie *blob.IntegrityError
		if errors.As(rec.Err, &ie) {
			integrity = append(integrity, rec)
		}
	}
	if len(integrity) > 0 {
		violation("%d chunk integrity failures observed by viewers: %s", len(integrity), loadgen.Summarize(integrity, 3))
	}
	if ss.RebufferRate > maxRebufferRate {
		violation("rebuffer rate %.2f/session (%d over %d sessions) exceeds %.2f",
			ss.RebufferRate, ss.Rebuffers, ss.Sessions, maxRebufferRate)
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
}
