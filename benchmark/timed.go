package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"time"
)

// runConfig is one invocation's shape.
type runConfig struct {
	w         *spec
	seed      int64
	windows   int // measured windows; one more is run first as warm-up
	windowOps int
	tmpRoot   string
}

// outcome is what an invocation reports.
type outcome struct {
	attempted, failed int
	problems          []string // why the run is not correct; empty when it is
	e2e, layer        metrics
	calMS             []float64 // every calibration sample, in order
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// timedRun boots the plain overlay, runs the warm-up and the measured
// windows with a calibration before the first and after every one, and
// computes every metric that needs no tracing. It returns the bench and
// fleet still running so the caller can add the serial untraced pass.
func timedRun(rc runConfig, k *kernel) (*outcome, *bench, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}}
	var calP, calD []float64
	record := func(s calSample) {
		out.calMS = append(out.calMS, s.ms())
		calP = append(calP, s.pMS)
		calD = append(calD, s.dMS)
	}
	calibrate := func() error {
		s, err := k.run()
		record(s)
		return err
	}

	first, err := k.settle()
	if err != nil {
		return nil, nil, err
	}
	record(first)

	setupStart := time.Now()
	sched := newSchedule(rc.w, rc.seed, 1+rc.windows, rc.windowOps)
	fl, err := bootFleet(rc.w, rc.tmpRoot, nil)
	if err != nil {
		return nil, nil, err
	}
	b := newBench(rc.w, sched.items, rc.seed, fl)
	if err := b.prepare(); err != nil {
		fl.close()
		return nil, nil, err
	}
	warm := b.runWindow(sched.windows[0], clients)
	setupRawS := time.Since(setupStart).Seconds()
	if len(warm.failed) > 0 {
		out.problem("warm-up: %d operations failed", len(warm.failed))
	}
	if err := calibrate(); err != nil {
		fl.close()
		return nil, nil, err
	}

	var (
		opsS, p50, p90, cpu          []float64 // per window, normalised
		rawOpsS, rawP50, rawP90, raw []float64 // per window, as read
		p99, getP50, putP50          []float64
		maxUS                        float64
		mallocs, allocBytes          uint64
		within                       int
	)
	before, servedBefore := fl.counters()
	for wi := 1; wi <= rc.windows; wi++ {
		entries := sched.windows[wi]
		res := b.runWindow(entries, clients)
		if err := calibrate(); err != nil {
			fl.close()
			return nil, nil, err
		}
		speed := speedOf(out.calMS[wi], out.calMS[wi+1])
		n := float64(len(entries))
		ls := res.summarise(rc.w.sloNS)

		rawOpsS = append(rawOpsS, n/res.durS)
		rawP50 = append(rawP50, ls.p50)
		rawP90 = append(rawP90, ls.p90)
		raw = append(raw, res.cpuS*1e6/n)
		opsS = append(opsS, normRate(n/res.durS, speed))
		p50 = append(p50, normDuration(ls.p50, speed))
		p90 = append(p90, normDuration(ls.p90, speed))
		cpu = append(cpu, normDuration(res.cpuS*1e6/n, speed))
		p99 = append(p99, ls.p99)
		maxUS = max(maxUS, ls.max)
		getP50 = append(getP50, p50Of(entries, res.lat, opGet))
		putP50 = append(putP50, p50Of(entries, res.lat, opPut))
		mallocs += res.mallocs
		allocBytes += res.allocBytes
		within += ls.withinSLO
		out.attempted += len(entries)
		out.failed += len(res.failed)
	}
	after, servedAfter := fl.counters()
	ops := float64(out.attempted)
	delta := func(series string) float64 { return float64(after[series] - before[series]) }
	sum := func(family string) float64 { return float64(sumFamily(after, family) - sumFamily(before, family)) }

	e := out.e2e
	e["setup_s"] = normDuration(setupRawS, speedOf(out.calMS[0], out.calMS[1]))
	e["ops_s"] = median(opsS)
	e["p50_us"] = median(p50)
	e["p90_us"] = median(p90)
	e["cpu_us_per_op"] = median(cpu)
	e["allocs_per_op"] = float64(mallocs) / ops
	e["alloc_bytes_per_op"] = float64(allocBytes) / ops
	e["hops_per_op"] = sum(hopsFamily) / ops
	e["msgs_per_op"] = sum(requestsFamily) / ops
	e["ok_ratio"] = float64(out.attempted-out.failed) / ops
	e["slo_ok_ratio"] = float64(within) / ops
	e["peak_rss_mib"] = peakRSSMiB()

	l := out.layer
	l["client.ops_s_raw"] = median(rawOpsS)
	l["client.p50_us_raw"] = median(rawP50)
	l["client.p90_us_raw"] = median(rawP90)
	l["client.cpu_us_per_op_raw"] = median(raw)
	l["client.setup_s_raw"] = setupRawS
	l["client.p99_us"] = median(p99)
	l["client.max_us"] = maxUS
	l["client.get_p50_us"] = median(getP50)
	l["client.put_p50_us"] = median(putP50)
	l["client.window_cv"] = cv(rawOpsS)
	l["host.cal_ms"] = median(out.calMS)
	l["host.cal_spread"] = cv(out.calMS)
	l["host.cal_p_ms"] = median(calP)
	l["host.cal_d_ms"] = median(calD)
	for _, ph := range []struct{ metric, label string }{
		{"p2p.hops_ascend_per_op", "ascending"},
		{"p2p.hops_descend_per_op", "descending"},
		{"p2p.hops_traverse_per_op", "traverse"},
	} {
		l[ph.metric] = delta(`cycloid_lookup_hops_total{phase="`+ph.label+`"}`) / ops
	}
	for _, op := range []string{"step", "fetch", "store", "replicate"} {
		l["p2p."+op+"_msgs_per_op"] = delta(`cycloid_requests_total{op="`+op+`"}`) / ops
	}
	l["p2p.timeouts_per_op"] = delta("cycloid_lookup_timeouts_total") / ops
	l["p2p.retries_per_op"] = delta("cycloid_retries_total") / ops
	served := make([]float64, len(servedAfter))
	for i := range served {
		served[i] = float64(servedAfter[i] - servedBefore[i])
	}
	l["p2p.query_load_cv"] = cv(served)
	reuses := delta("cycloid_pool_reuses_total")
	l["pool.reuse_ratio"] = ratio(reuses, reuses+delta("cycloid_pool_dials_total"))
	var puts float64
	for wi := 1; wi <= rc.windows; wi++ {
		for _, en := range sched.windows[wi] {
			if en.op == opPut {
				puts++
			}
		}
	}
	l["store.wal_bytes_per_user_byte"] = ratio(delta("cycloid_wal_append_bytes_total"), puts*kvValueLen)
	l["store.fsyncs_per_put"] = ratio(delta("cycloid_wal_fsyncs_total"), delta("cycloid_wal_appends_total"))
	l["blob.mib_s"] = 0
	if rc.w.blob {
		l["blob.mib_s"] = median(rawOpsS) * blobSize / (1 << 20)
	}
	l["blob.chunk_fetches_per_read"] = ratio(delta("cycloid_blob_chunk_fetches_total"), delta("cycloid_blob_reads_total"))

	if out.failed > 0 {
		out.problem("%d of %d operations failed or returned a wrong reply", out.failed, out.attempted)
	}
	if t := delta("cycloid_lookup_timeouts_total"); t > 0 {
		out.problem("%v lookup timeouts on a fault-free overlay", t)
	}
	return out, b, nil
}

var vmHWM = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := vmHWM.FindSubmatch(status)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}
