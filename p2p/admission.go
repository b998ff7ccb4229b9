// Server-side admission control: a per-node cap on concurrently
// dispatched wire requests with a bounded FIFO wait queue in front of
// it.
//
// Every non-ping request passes through admit before dispatch. A free
// slot admits immediately; otherwise the request waits in a queue
// bounded by Config.QueueDepth, for at most the smaller of its
// propagated deadline and the node's DialTimeout. A full queue — or a
// wait that outlives the caller's deadline — sheds the request with a
// typed busy reply carrying a retry-after hint derived from the queue
// depth and an EWMA of observed service time, so clients back off for
// roughly as long as the backlog needs to drain. Pings bypass
// admission entirely: stabilization's liveness probes must keep
// telling an overloaded node apart from a crashed one.
//
// The queue is strictly FIFO: a freed slot is handed to the
// longest-waiting request, not raced for. Under sustained pressure a
// racing semaphore lets fresh arrivals (a hot-key horde re-queuing in a
// closed loop) repeatedly beat requests already in line, so an innocent
// bystander's wait becomes unbounded in practice; FIFO bounds it at
// roughly QueueDepth service times.
//
// The controller exports its conservation law through telemetry:
// admission_offered_total == admission_admitted_total +
// admission_shed_total + admission_queue_timeout_total, which the
// overload chaos tier asserts from counter deltas.
package p2p

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// retryAfterMin/Max clamp the busy reply's hint: never zero (a zero
	// hint reads as "retry immediately" and defeats the backoff), never
	// so large that one pathological service-time sample parks clients
	// for good.
	retryAfterMin = time.Millisecond
	retryAfterMax = 2 * time.Second
	// svcTimePrior seeds the service-time EWMA before any request has
	// completed, so the first shed replies carry a sane hint.
	svcTimePrior = time.Millisecond
)

// admWaiter is one queued request. ready is closed by the releasing
// dispatch that hands its slot over; gone marks a waiter that timed out
// and abandoned the queue, so releases skip it. Both transitions happen
// under the admission mutex, which is what makes handoff-vs-timeout
// races safe to resolve.
type admWaiter struct {
	ready chan struct{}
	given bool // slot handed over (ready closed)
	gone  bool // waiter abandoned the queue
}

// admission is the per-node admission controller (Config.MaxInflight).
type admission struct {
	depth   int           // bounded wait queue (Config.QueueDepth)
	maxWait time.Duration // queue-wait cap for requests without a deadline

	mu       sync.Mutex
	cap      int
	inflight int
	waiters  []*admWaiter // FIFO; may contain abandoned entries

	queued   atomic.Int64 // live (non-abandoned) waiters, for hints/tests
	svcNanos atomic.Int64 // EWMA of dispatch service time, nanoseconds

	tel *nodeMetrics
}

func newAdmission(maxInflight, queueDepth int, maxWait time.Duration, tel *nodeMetrics) *admission {
	a := &admission{
		cap:     maxInflight,
		depth:   queueDepth,
		maxWait: maxWait,
		tel:     tel,
	}
	a.svcNanos.Store(int64(svcTimePrior))
	return a
}

// admit gates one request. On admission the returned release function
// is non-nil and must be called when the dispatch completes. On
// rejection release is nil and the returned response is the busy reply
// to send. deadlineMs is the caller's propagated deadline budget
// (request envelope DeadlineMs); 0 means none.
func (a *admission) admit(deadlineMs uint32) (release func(), busy *response) {
	a.tel.admOffered.Inc()
	arrival := time.Now()
	a.mu.Lock()
	if a.inflight < a.cap {
		a.inflight++
		a.mu.Unlock()
		return a.admitted(arrival), nil
	}
	// All slots busy: join the bounded FIFO queue.
	if a.queued.Load() >= int64(a.depth) {
		a.mu.Unlock()
		a.tel.admShed.Inc()
		return nil, a.busyResponse("busy: admission queue full")
	}
	w := &admWaiter{ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.tel.admQueueGauge.Set(a.queued.Add(1))
	a.mu.Unlock()

	// The wait is capped by the caller's remaining deadline — waiting
	// longer would admit a request whose caller already gave up, which
	// is exactly the dead work deadline propagation exists to drop.
	wait := a.maxWait
	if deadlineMs > 0 {
		if d := time.Duration(deadlineMs) * time.Millisecond; d < wait {
			wait = d
		}
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-w.ready:
		a.tel.admQueueGauge.Set(a.queued.Add(-1))
		if deadlineMs > 0 && time.Since(arrival) >= time.Duration(deadlineMs)*time.Millisecond {
			// Slot and deadline raced; the caller is gone either way.
			a.releaseSlot()
			a.tel.admQueueTimeout.Inc()
			return nil, a.busyResponse("busy: deadline expired in admission queue")
		}
		// EWMA clock restarts here: service time is slot-held time, not
		// sojourn time. Folding queue wait into it would inflate the
		// retry-after hint, which inflates client backoff, which keeps
		// the hint inflated — a feedback loop with no damping.
		return a.admitted(time.Now()), nil
	case <-t.C:
		a.mu.Lock()
		handed := w.given
		if !handed {
			w.gone = true
		}
		a.mu.Unlock()
		a.tel.admQueueGauge.Set(a.queued.Add(-1))
		if handed {
			// Lost the race against a concurrent handoff: the slot is
			// ours, give it straight back.
			a.releaseSlot()
		}
		a.tel.admQueueTimeout.Inc()
		return nil, a.busyResponse("busy: timed out in admission queue")
	}
}

// admitted claims the just-acquired slot: counters, the in-flight
// gauge, and a release closure that folds the dispatch's service time
// (measured from start, the moment the slot was acquired) into the
// EWMA behind the retry-after hint.
func (a *admission) admitted(start time.Time) func() {
	a.tel.admAdmitted.Inc()
	a.tel.admInflightGauge.Add(1)
	return func() {
		// Plain load/store EWMA (weight 1/8): a concurrent update loses
		// one sample, which the estimator tolerates by design.
		d := time.Since(start).Nanoseconds()
		old := a.svcNanos.Load()
		a.svcNanos.Store(old - old/8 + d/8)
		a.tel.admInflightGauge.Add(-1)
		a.releaseSlot()
	}
}

// releaseSlot frees one slot: the longest-waiting live request gets it
// handed over directly (inflight unchanged); with nobody in line the
// in-flight count drops.
func (a *admission) releaseSlot() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		a.waiters[0] = nil
		a.waiters = a.waiters[1:]
		if w.gone {
			continue
		}
		w.given = true
		close(w.ready)
		return
	}
	a.inflight--
}

// retryAfter estimates the backlog drain time: one observed service
// time per request ahead in line, clamped to a sane hint range.
func (a *admission) retryAfter() time.Duration {
	per := time.Duration(a.svcNanos.Load())
	est := time.Duration(a.queued.Load()+1) * per
	if est < retryAfterMin {
		est = retryAfterMin
	}
	if est > retryAfterMax {
		est = retryAfterMax
	}
	return est
}

func (a *admission) busyResponse(msg string) *response {
	ra := a.retryAfter()
	ms := uint32(ra / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return &response{Err: msg, Busy: true, RetryAfterMs: ms}
}

// dispatchAdmitted runs dispatch behind the admission controller and
// counts the request as served. Pings bypass admission so liveness
// probes (stabilization's suspect re-probes) keep distinguishing an
// overloaded node from a crashed one.
//
// A request carrying a sampled trace context also gets a server span
// scoping its whole sojourn: the admission wait lands in its queue
// phase, and a shed is recorded as a zero-service span annotated
// "shed" — so the caller's tree shows where the request died. Untraced
// requests (the overwhelming majority at production sampling rates)
// take the same path with a nil scope and allocate nothing for it.
func (n *Node) dispatchAdmitted(req request) response {
	var st *opTrace
	if req.TraceFlags&1 != 0 && n.spans != nil && req.Op != "ping" {
		st = n.beginServer(&req)
	}
	if n.adm != nil && req.Op != "ping" {
		release, busy := n.adm.admit(req.DeadlineMs)
		if st != nil {
			st.queue = int64(time.Since(st.start))
		}
		if busy != nil {
			st.annotate("shed")
			n.endServer(st, busy.Err)
			return *busy
		}
		defer release()
		if d := n.cfg.ServiceDelay; d > 0 {
			// Harness knob: simulated service time, slept while the slot is
			// held so queue occupancy builds the way a slow real handler's
			// would (Config.ServiceDelay).
			time.Sleep(d)
		}
	}
	n.tel.request(req.Op)
	resp := n.dispatch(req, st, nil)
	n.endServer(st, resp.Err)
	resp.OK = resp.Err == ""
	return resp
}
