package p2p_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cycloid/internal/chaosrunner"
)

// -chaosseeds bounds how many seeds the chaos suite drives; CI keeps it
// small, a soak run can raise it (go test -run Chaos -chaosseeds=20).
var chaosSeeds = flag.Int("chaosseeds", 2, "number of chaos seeds to run")

// TestChaosInvariants drives seeded schedules of joins, graceful
// leaves, crashes, partitions, loss, latency and concurrent traffic on
// the in-memory transport and requires every paper-level invariant to
// hold after each stabilization window. No real sockets, no wall-clock
// sleeps: a failure replays exactly from its seed.
func TestChaosInvariants(t *testing.T) {
	for s := 0; s < *chaosSeeds; s++ {
		seed := int64(1 + s)
		t.Run(string(rune('A'+s)), func(t *testing.T) {
			t.Parallel()
			res, err := chaosrunner.Run(chaosrunner.Config{Seed: seed})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if res.FinalLive < 4 {
				t.Errorf("seed %d: only %d nodes survived", seed, res.FinalLive)
			}
			if res.FinalKeys == 0 {
				t.Errorf("seed %d: no tracked keys survived", seed)
			}
			// The timeout metric must reflect injected faults: across a
			// whole schedule of partitions, blackholes and loss, the
			// fault phases record timeouts...
			faults, faultTimeouts := 0, 0
			for i, rep := range res.Rounds {
				faultTimeouts += rep.FaultTimeouts
				if k := res.Schedule[2*i].Kind; k != chaosrunner.EvNone {
					faults++
				}
				// ...and clean phases record none.
				if rep.CleanTimeouts != 0 {
					t.Errorf("seed %d round %d: %d timeouts without faults", seed, rep.Round, rep.CleanTimeouts)
				}
			}
			if faults > 0 && faultTimeouts == 0 {
				t.Errorf("seed %d: %d fault rounds produced no timeouts", seed, faults)
			}
		})
	}
}

// chaosGolden names every chaos configuration the tests and CI drive
// (the cycloid-sim rows spell out the flags' values). Each pins its
// schedule in testdata/chaos/<name>.golden; the rows with run set also
// pin the full Result of a run. Those are the configurations without
// racing load traffic, whose runs are deterministic: seed 5 crashes a
// member, so pooled connections to a dead peer are torn down and
// redialled; repl-seed7 double-crashes under R=3; kill-seed438 runs
// four kill/restart cycles on run-scoped temporary directories, so no
// filesystem path may leak into the report.
var chaosGolden = []struct {
	name string
	cfg  chaosrunner.Config
	run  bool
}{
	{"seed1", chaosrunner.Config{Seed: 1}, false},
	{"seed2", chaosrunner.Config{Seed: 2}, false},
	{"seed3", chaosrunner.Config{Seed: 3}, true},
	{"seed4", chaosrunner.Config{Seed: 4}, false},
	{"seed5", chaosrunner.Config{Seed: 5}, true},
	{"seed11", chaosrunner.Config{Seed: 11}, false},
	{"seed12", chaosrunner.Config{Seed: 12}, false},
	{"seed19", chaosrunner.Config{Seed: 19}, false},
	{"repl-seed7", chaosrunner.Config{Seed: 7, Replicas: 3, MultiCrash: 2, Rounds: 5}, true},
	{"repl-seed101", chaosrunner.Config{Seed: 101, Replicas: 3, MultiCrash: 2, Rounds: 6}, false},
	{"repl-seed102", chaosrunner.Config{Seed: 102, Replicas: 3, MultiCrash: 2, Rounds: 6}, false},
	{"repl-seed103", chaosrunner.Config{Seed: 103, Replicas: 3, MultiCrash: 2, Rounds: 6}, false},
	{"repl-seed104", chaosrunner.Config{Seed: 104, Replicas: 3, MultiCrash: 2, Rounds: 6}, false},
	{"load-seed201", chaosrunner.Config{Seed: 201, Rounds: 6, Replicas: 3, LoadClients: 4}, false},
	{"load-seed202", chaosrunner.Config{Seed: 202, Rounds: 6, Replicas: 3, LoadClients: 4}, false},
	{"load-seed203", chaosrunner.Config{Seed: 203, Rounds: 6, Replicas: 3, LoadClients: 4}, false},
	{"load-seed204", chaosrunner.Config{Seed: 204, Rounds: 6, Replicas: 3, LoadClients: 4}, false},
	{"traced-seed401", chaosrunner.Config{Seed: 401, Rounds: 6, Replicas: 3, LoadClients: 4, TraceSample: 1}, false},
	{"traced-seed402", chaosrunner.Config{Seed: 402, Rounds: 6, Replicas: 3, LoadClients: 4, TraceSample: 1}, false},
	{"traced-seed403", chaosrunner.Config{Seed: 403, Rounds: 6, Replicas: 3, LoadClients: 4, TraceSample: 1}, false},
	{"traced-seed404", chaosrunner.Config{Seed: 404, Rounds: 6, Replicas: 3, LoadClients: 4, TraceSample: 1}, false},
	{"kill-seed438", chaosrunner.Config{Seed: 438, Rounds: 8, Replicas: 3, KillRestart: true}, true},
	{"kill-load-seed402", chaosrunner.Config{Seed: 402, Rounds: 8, Replicas: 3, KillRestart: true, LoadClients: 2}, false},
	{"kill-load-seed438", chaosrunner.Config{Seed: 438, Rounds: 8, Replicas: 3, KillRestart: true, LoadClients: 2}, false},
	{"stream-seed438", chaosrunner.Config{Seed: 438, Rounds: 8, Replicas: 3, KillRestart: true, StreamingClients: 2}, false},
	{"overload-seed7", chaosrunner.Config{Seed: 7, Overload: true}, false},
	{"sim-seed9", chaosrunner.Config{Seed: 9, Dim: 6, Nodes: 12, Rounds: 6, Replicas: 3, MultiCrash: 2}, false},
	{"sim-seed438", chaosrunner.Config{Seed: 438, Dim: 6, Nodes: 12, Rounds: 8, Replicas: 3, MultiCrash: 1, KillRestart: true}, false},
	{"sim-overload-seed7", chaosrunner.Config{Seed: 7, Dim: 6, Nodes: 12, Rounds: 8, Replicas: 1, MultiCrash: 1, Overload: true}, false},
}

// TestChaosGolden holds the harness to its determinism contract against
// files written once: same seed, same schedule, and — for the run rows
// — the same Result down to every timeout count and violation. Matching
// a fixed file implies two runs match each other, across processes and
// builds. On a mismatch the actual output lands in <name>.got beside
// the golden file; after a deliberate behaviour change, review the diff
// and move it over the golden file.
func TestChaosGolden(t *testing.T) {
	for _, tc := range chaosGolden {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			sched := chaosrunner.GenerateSchedule(tc.cfg)
			for _, e := range sched {
				fmt.Fprintf(&b, "%+v\n", e)
			}
			if tc.run {
				res, err := chaosrunner.Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Schedule, sched) {
					t.Fatalf("Run followed a schedule other than GenerateSchedule's:\n%+v", res.Schedule)
				}
				b.WriteString("result:\n")
				for _, rep := range res.Rounds {
					fmt.Fprintf(&b, "%+v\n", rep)
				}
				rest := *res
				rest.Schedule, rest.Rounds = nil, nil
				fmt.Fprintf(&b, "%+v\n", rest)
			}
			path := filepath.Join("testdata", "chaos", tc.name+".golden")
			want, err := os.ReadFile(path)
			if err == nil && string(want) == b.String() {
				return
			}
			got := strings.TrimSuffix(path, ".golden") + ".got"
			if werr := os.WriteFile(got, []byte(b.String()), 0o644); werr != nil {
				t.Errorf("writing %s: %v", got, werr)
			}
			if err != nil {
				t.Fatalf("%v (actual output written to %s)", err, got)
			}
			t.Fatalf("%s no longer matches; actual output written to %s", path, got)
		})
	}
}

// TestChaosScheduleIsPure checks schedule generation alone is a pure
// function of the seed and differs across seeds.
func TestChaosScheduleIsPure(t *testing.T) {
	cfg := chaosrunner.Config{Seed: 11}
	if !reflect.DeepEqual(chaosrunner.GenerateSchedule(cfg), chaosrunner.GenerateSchedule(cfg)) {
		t.Fatal("same seed must generate the same schedule")
	}
	other := chaosrunner.Config{Seed: 12}
	if reflect.DeepEqual(chaosrunner.GenerateSchedule(cfg), chaosrunner.GenerateSchedule(other)) {
		t.Fatal("different seeds generated the same schedule")
	}
}

// TestChaosReplicatedCrashTolerance drives seeded schedules with R = 3
// replication and up to 2 simultaneous crashes per stabilization
// window, and requires the upgraded durability invariant: zero key
// loss — every key ever tracked is still tracked and retrievable from
// every live node at the end — because every crash event stays below
// the replication factor.
func TestChaosReplicatedCrashTolerance(t *testing.T) {
	for s := 0; s < *chaosSeeds; s++ {
		seed := int64(101 + s)
		t.Run(string(rune('A'+s)), func(t *testing.T) {
			t.Parallel()
			cfg := chaosrunner.Config{
				Seed:       seed,
				Replicas:   3,
				MultiCrash: 2,
				Rounds:     6,
			}
			res, err := chaosrunner.Run(cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			crashes := 0
			for _, e := range res.Schedule {
				if e.Kind == chaosrunner.EvCrash {
					crashes++
				}
			}
			// Zero forfeiture: 16 seeded keys plus every concurrent put
			// must still be tracked — crashes below R lose nothing.
			want := 16 + 6*4*3
			if res.FinalKeys != want {
				t.Errorf("seed %d: %d keys tracked at the end, want %d (no loss despite %d crashes)",
					seed, res.FinalKeys, want, crashes)
			}
		})
	}
}

// TestChaosPooledLoadDuringChurn is the transport stress run: every
// member's pooled, multiplexed connections carry load while replication
// keeps crashes below R and load workers drive gets and lookups
// concurrently with every membership event and stabilization sweep.
// Required: every invariant holds (no lost keys — invariant 1b checks
// each tracked key from every live node — and a bounded error rate on
// the racing traffic), and the load actually ran.
func TestChaosPooledLoadDuringChurn(t *testing.T) {
	for s := 0; s < *chaosSeeds; s++ {
		seed := int64(201 + s)
		t.Run(string(rune('A'+s)), func(t *testing.T) {
			t.Parallel()
			cfg := chaosrunner.Config{
				Seed:        seed,
				Rounds:      6,
				Replicas:    3,
				LoadClients: 4,
			}
			res, err := chaosrunner.Run(cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			loadOps := 0
			for _, rep := range res.Rounds {
				loadOps += rep.LoadOps
			}
			if want := 6 * 4 * 8; loadOps != want {
				t.Errorf("seed %d: %d load ops ran, want %d", seed, loadOps, want)
			}
			// Crashes stay below R = 3 (MultiCrash defaults to 1), so the
			// run must forfeit nothing: 16 seeded keys plus every
			// concurrent put still tracked at the end.
			if want := 16 + 6*4*3; res.FinalKeys != want {
				t.Errorf("seed %d: %d keys tracked at the end, want %d", seed, res.FinalKeys, want)
			}
		})
	}
}

// TestChaosDefaultScheduleUnchanged pins that the knobs which add
// replication, tracing or traffic never draw from the schedule RNG: a
// config raising any one of them alone must generate the exact schedule
// of the plain seed. Of the tier knobs, only MultiCrash and KillRestart
// shape schedules.
func TestChaosDefaultScheduleUnchanged(t *testing.T) {
	plain := chaosrunner.GenerateSchedule(chaosrunner.Config{Seed: 19})
	for _, tc := range []struct {
		knob string
		cfg  chaosrunner.Config
	}{
		{"Replicas", chaosrunner.Config{Seed: 19, Replicas: 3}},
		{"TraceSample", chaosrunner.Config{Seed: 19, TraceSample: 1}},
		{"LoadClients", chaosrunner.Config{Seed: 19, LoadClients: 4}},
		{"StreamingClients", chaosrunner.Config{Seed: 19, StreamingClients: 2}},
		{"Overload", chaosrunner.Config{Seed: 19, Overload: true}},
	} {
		if !reflect.DeepEqual(plain, chaosrunner.GenerateSchedule(tc.cfg)) {
			t.Errorf("raising %s alone changed the generated schedule", tc.knob)
		}
	}
}

// TestChaosOverloadRejectsIgnoredKnobs pins that Run refuses, rather
// than silently drops, every knob the overload tier has no use for: it
// runs no fault schedule, no load or streaming workers and no tracing.
// The check happens before any member boots.
func TestChaosOverloadRejectsIgnoredKnobs(t *testing.T) {
	for _, tc := range []struct {
		knob string
		cfg  chaosrunner.Config
	}{
		{"KillRestart", chaosrunner.Config{Seed: 7, Overload: true, KillRestart: true}},
		{"LoadClients", chaosrunner.Config{Seed: 7, Overload: true, LoadClients: 2}},
		{"StreamingClients", chaosrunner.Config{Seed: 7, Overload: true, StreamingClients: 2}},
		{"MultiCrash", chaosrunner.Config{Seed: 7, Overload: true, MultiCrash: 2}},
		{"TraceSample", chaosrunner.Config{Seed: 7, Overload: true, TraceSample: 1}},
	} {
		t.Run(tc.knob, func(t *testing.T) {
			res, err := chaosrunner.Run(tc.cfg)
			if err == nil {
				t.Fatalf("Run accepted Overload with %s and ran: %d violations", tc.knob, len(res.Violations))
			}
			if !strings.Contains(err.Error(), tc.knob) {
				t.Errorf("error %q does not name %s", err, tc.knob)
			}
		})
	}
}

// TestChaosTracedLoadDuringChurn is the tracing chaos gate: every
// operation is trace-sampled on an overlay with load
// racing the churn, and the post-run trace-completeness invariant
// (every reconstructed span tree rooted and structurally consistent,
// detached spans only when the schedule crashed someone) must hold
// alongside all the usual invariants.
func TestChaosTracedLoadDuringChurn(t *testing.T) {
	for s := 0; s < *chaosSeeds; s++ {
		seed := int64(401 + s)
		t.Run(string(rune('A'+s)), func(t *testing.T) {
			t.Parallel()
			cfg := chaosrunner.Config{
				Seed:        seed,
				Rounds:      6,
				Replicas:    3,
				LoadClients: 4,
				TraceSample: 1,
			}
			res, err := chaosrunner.Run(cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if res.Traces == 0 || res.Spans == 0 {
				t.Errorf("seed %d: TraceSample=1 run reconstructed %d traces from %d spans; want both > 0",
					seed, res.Traces, res.Spans)
			}
		})
	}
}

// TestChaosKillRestartSchedule pins the shape of kill/restart
// schedules: kills take the place of the crash events the same seed
// would generate, every restart lands exactly DowntimeRounds after its
// kill (or not at all, when that round is past the end), a node is
// never restarted while up nor killed while down, and the two streams
// are identical — crash swapped for kill — until the first restart
// re-enters the live set.
func TestChaosKillRestartSchedule(t *testing.T) {
	cfg := chaosrunner.Config{Seed: 438, Rounds: 8, Replicas: 3, KillRestart: true}
	sched := chaosrunner.GenerateSchedule(cfg)
	plainCfg := cfg
	plainCfg.KillRestart = false
	plain := chaosrunner.GenerateSchedule(plainCfg)

	down := map[int]bool{}
	killRound := map[int]int{}
	kills, restarts := 0, 0
	for _, e := range sched {
		switch e.Kind {
		case chaosrunner.EvKill:
			kills++
			if down[e.Node] {
				t.Errorf("node %d killed at round %d while already down", e.Node, e.Round)
			}
			down[e.Node] = true
			killRound[e.Node] = e.Round
		case chaosrunner.EvRestart:
			restarts++
			if !down[e.Node] {
				t.Errorf("node %d restarted at round %d while up", e.Node, e.Round)
			}
			if want := killRound[e.Node] + 1; e.Round != want {
				t.Errorf("node %d restarted at round %d, want %d", e.Node, e.Round, want)
			}
			down[e.Node] = false
		case chaosrunner.EvCrash:
			t.Errorf("crash event at round %d in a KillRestart schedule", e.Round)
		}
	}
	if kills < 3 || restarts < 3 {
		t.Fatalf("seed 438 generated %d kills / %d restarts, want >= 3 each (re-pin the seed)", kills, restarts)
	}
	// Down-for-good tails are allowed only when the restart would land
	// past the final round.
	for ord := range down {
		if down[ord] && killRound[ord]+1 < cfg.Rounds {
			t.Errorf("node %d killed at round %d never restarted", ord, killRound[ord])
		}
	}
	// Until the first restart is spliced in, the kill stream must mirror
	// the crash stream of the same seed event for event.
	for i, e := range sched {
		if e.Kind == chaosrunner.EvRestart {
			break
		}
		want := plain[i]
		if want.Kind == chaosrunner.EvCrash {
			want.Kind = chaosrunner.EvKill
		}
		if e != want {
			t.Errorf("event %d diverged before any restart: %+v vs crash-schedule %+v", i, e, want)
		}
	}
}

// TestChaosKillRestartDurability is the durability gate the paper's
// churn model demands once the store is disk-backed: seeded schedules
// whose crashes become kill/restart cycles (the killed node's data
// directory survives and the runner reboots it a round later), R = 3
// replication, and load racing the churn. Required: at least three
// kill/restart cycles actually ran, zero violations — which covers
// every acked Put staying readable from every live node (invariant
// 1b), the rebooted node replaying every key it held at the kill
// before rejoining, no owner-assigned version regressing fleet-wide
// (invariant 1c), and the reused telemetry registry linting clean
// after each restart — and zero forfeiture: kills never drop a tracked
// key, because the disk survives.
func TestChaosKillRestartDurability(t *testing.T) {
	for _, seed := range []int64{402, 438} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := chaosrunner.Config{
				Seed:        seed,
				Rounds:      8,
				Replicas:    3,
				KillRestart: true,
				LoadClients: 2,
			}
			res, err := chaosrunner.Run(cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if res.Kills < 3 || res.Restarts < 3 {
				t.Errorf("seed %d: %d kills / %d restarts ran, want >= 3 each (re-pin the seed)",
					seed, res.Kills, res.Restarts)
			}
			// Kill/restart cycles forfeit nothing: 16 seeded keys plus
			// every concurrent put must still be tracked at the end.
			if want := 16 + 8*4*3; res.FinalKeys != want {
				t.Errorf("seed %d: %d keys tracked at the end, want %d despite %d kills",
					seed, res.FinalKeys, want, res.Kills)
			}
		})
	}
}

// TestChaosOverloadTier drives the overload-protection tier on a
// pinned seed: Zipf hot-key traffic hammers keys
// owned by a victim node whose admission cap is tiny, while control
// traffic measures the rest of the cluster. The runner itself asserts
// the invariants — admission conservation, no acked Put lost, bounded
// control p99, retries within the token-bucket ceiling, victim still
// routable afterwards — so this test checks for violations and that
// the scenario actually bit: the victim shed, retries flowed, and
// Puts were acked while it was shedding.
func TestChaosOverloadTier(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		res, err := chaosrunner.Run(chaosrunner.Config{
			Seed:     7,
			Overload: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Error(v)
		}
		o := res.Overload
		if o == nil {
			t.Fatal("overload run returned no OverloadReport")
		}
		if o.Shed == 0 {
			t.Error("victim shed nothing — the tier exercised no overload")
		}
		if o.Offered != o.Admitted+o.Shed+o.QueueTimeouts {
			t.Errorf("victim conservation broken: offered %d != admitted %d + shed %d + queue-timeout %d",
				o.Offered, o.Admitted, o.Shed, o.QueueTimeouts)
		}
		if o.AckedPuts == 0 {
			t.Error("no Put was acked during the overload window — durability unexercised")
		}
		if o.HotErrors == 0 {
			t.Error("hot traffic saw no errors at all — the victim cap never pushed back to clients")
		}
		t.Logf("victim offered=%d admitted=%d shed=%d qto=%d; p99 %dus->%dus; retries=%d acked=%d hot=%d/%d ctrl=%d/%d",
			o.Offered, o.Admitted, o.Shed, o.QueueTimeouts,
			o.BaselineP99us, o.OverloadP99us, o.FleetRetries, o.AckedPuts,
			o.HotErrors, o.HotOps, o.CtrlErrors, o.CtrlOps)
	})
}

// TestChaosStreamingDuringChurn is the blob layer's chaos gate, on a
// pinned seed: streaming workers write chunked
// blobs and play paced viewer sessions while the schedule's churn —
// kill/restart cycles included, so surviving disks matter — runs
// underneath. The runner itself asserts the tier's invariants after
// every round (zero chunk integrity failures fleet-wide, every
// acknowledged blob readable in full from a live node, bounded error
// and rebuffer rates), so this test checks for violations and that the
// scenario actually bit: every scheduled streaming attempt ran, kills
// happened, and the acknowledged-blob set grew past the seed
// population and survived to the end.
func TestChaosStreamingDuringChurn(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		cfg := chaosrunner.Config{
			Seed:             438,
			Rounds:           8,
			Replicas:         3,
			KillRestart:      true,
			StreamingClients: 2,
		}
		res, err := chaosrunner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			t.Error(v)
		}
		if res.Kills < 3 || res.Restarts < 3 {
			t.Errorf("%d kills / %d restarts ran, want >= 3 each (re-pin the seed)",
				res.Kills, res.Restarts)
		}
		// Every scheduled attempt ran: per round, each worker writes
		// one blob and plays two viewer sessions.
		if want := 8 * 2 * (1 + 2); res.StreamOps != want {
			t.Errorf("%d streaming attempts ran, want %d", res.StreamOps, want)
		}
		// Kills never forfeit acked blobs (their disks survive), so
		// the verified set must exceed the 2 provisioned seeds by the
		// round writes that succeeded — at least one round's worth.
		if res.AckedBlobs < 2+2 {
			t.Errorf("only %d acked blobs tracked at the end", res.AckedBlobs)
		}
		t.Logf("streamOps=%d rebuffers=%d ackedBlobs=%d kills=%d restarts=%d",
			res.StreamOps, res.Rebuffers, res.AckedBlobs, res.Kills, res.Restarts)
	})
}
