package p2p

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cycloid/internal/ids"
	"cycloid/internal/telemetry"
	"cycloid/p2p/memnet"
)

func testAdmission(maxInflight, queueDepth int, maxWait time.Duration) (*admission, *nodeMetrics) {
	tel := newNodeMetrics(telemetry.NewRegistry("test"))
	return newAdmission(maxInflight, queueDepth, maxWait, tel), tel
}

// TestAdmissionFastPath admits up to the cap without queueing and
// conserves its counters.
func TestAdmissionFastPath(t *testing.T) {
	a, tel := testAdmission(2, 2, time.Second)
	r1, b1 := a.admit(0)
	r2, b2 := a.admit(0)
	if b1 != nil || b2 != nil {
		t.Fatalf("admits under the cap were rejected: %v %v", b1, b2)
	}
	if got := tel.admInflightGauge.Value(); got != 2 {
		t.Fatalf("admission_inflight = %d, want 2", got)
	}
	r1()
	r2()
	if got := tel.admInflightGauge.Value(); got != 0 {
		t.Fatalf("admission_inflight after release = %d, want 0", got)
	}
	if off, adm := tel.admOffered.Value(), tel.admAdmitted.Value(); off != 2 || adm != 2 {
		t.Fatalf("offered=%d admitted=%d, want 2/2", off, adm)
	}
}

// TestAdmissionShedsBeyondQueue fills the slots and the queue, then
// requires the next request to be shed immediately with a busy reply
// carrying a positive retry-after hint — and the conservation law
// offered == admitted + shed + queue_timeout to hold throughout.
func TestAdmissionShedsBeyondQueue(t *testing.T) {
	a, tel := testAdmission(1, 1, 5*time.Second)
	release, busy := a.admit(0)
	if busy != nil {
		t.Fatalf("first admit rejected: %+v", busy)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, b := a.admit(10_000)
		if r != nil {
			r()
		}
		_ = b
	}()
	waitFor(t, func() bool { return a.queued.Load() == 1 })

	start := time.Now()
	r3, b3 := a.admit(10_000)
	if r3 != nil {
		t.Fatal("admit beyond the queue depth was admitted")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("shed took %v; want immediate", d)
	}
	if b3 == nil || !b3.Busy || b3.RetryAfterMs == 0 {
		t.Fatalf("shed reply = %+v; want Busy with a positive RetryAfterMs", b3)
	}
	if shed := tel.admShed.Value(); shed != 1 {
		t.Fatalf("admission_shed_total = %d, want 1", shed)
	}
	release() // the queued admit takes the slot and releases it
	wg.Wait()

	off := tel.admOffered.Value()
	sum := tel.admAdmitted.Value() + tel.admShed.Value() + tel.admQueueTimeout.Value()
	if off != 3 || off != sum {
		t.Fatalf("conservation violated: offered=%d, admitted+shed+timeout=%d", off, sum)
	}
}

// TestAdmissionQueueTimeout parks a request in the queue past its
// propagated deadline and requires a busy reply counted as a queue
// timeout, not a shed — the deadline-propagation half of the contract:
// the server drops work whose caller already gave up.
func TestAdmissionQueueTimeout(t *testing.T) {
	a, tel := testAdmission(1, 4, 5*time.Second)
	release, busy := a.admit(0)
	if busy != nil {
		t.Fatalf("first admit rejected: %+v", busy)
	}
	defer release()
	start := time.Now()
	r, b := a.admit(20) // 20ms deadline, slot never frees
	if r != nil {
		t.Fatal("expired request was admitted")
	}
	if d := time.Since(start); d < 15*time.Millisecond || d > time.Second {
		t.Fatalf("queue wait lasted %v; want ~20ms (the propagated deadline)", d)
	}
	if b == nil || !b.Busy {
		t.Fatalf("queue timeout reply = %+v; want Busy", b)
	}
	if qt := tel.admQueueTimeout.Value(); qt != 1 {
		t.Fatalf("admission_queue_timeout_total = %d, want 1", qt)
	}
	off := tel.admOffered.Value()
	sum := tel.admAdmitted.Value() + tel.admShed.Value() + tel.admQueueTimeout.Value()
	if off != sum {
		t.Fatalf("conservation violated: offered=%d, admitted+shed+timeout=%d", off, sum)
	}
}

// TestRetryBudgetBounds pins the token-bucket arithmetic: the initial
// allowance, the per-exchange earn rate, and the cap.
func TestRetryBudgetBounds(t *testing.T) {
	tel := newNodeMetrics(telemetry.NewRegistry("test"))
	b := newRetryBudget(tel)
	for i := 0; i < retryBudgetInitial; i++ {
		if !b.take() {
			t.Fatalf("take %d failed inside the initial allowance", i)
		}
	}
	if b.take() {
		t.Fatal("take succeeded with an empty bucket")
	}
	if got := tel.retryExhausted.Value(); got != 0 {
		t.Fatalf("retry_budget_exhausted_total = %d before any callRetry give-up", got)
	}
	// Ten completed exchanges earn one retry.
	for i := 0; i < 10; i++ {
		b.earn()
	}
	if !b.take() || b.take() {
		t.Fatal("10 earns must fund exactly one retry")
	}
	for i := 0; i < 100*retryBudgetCap; i++ {
		b.earn()
	}
	b.mu.Lock()
	deci := b.deci
	b.mu.Unlock()
	if deci > retryBudgetCap*10 {
		t.Fatalf("bucket holds %v deci-tokens, cap is %v", deci, retryBudgetCap*10)
	}
}

// TestCallRetryHonorsBusy exercises the budgeted retry loop against a
// fake call sequence: busy twice, then success — two retries spent,
// bounded backoff, no error surfaced.
func TestCallRetryHonorsBusy(t *testing.T) {
	nw := memnet.New(91)
	cfg := memConfig(nw, "solo", 5, ids.CycloidID{K: 2, A: 9})
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	// Second node that sheds everything: MaxInflight 1 with its only
	// slot held by the test, queue depth 1 held by a parked admit.
	cfg2 := memConfig(nw, "busy", 5, ids.CycloidID{K: 3, A: 9})
	cfg2.MaxInflight = 1
	cfg2.QueueDepth = 1
	nd2, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()
	release, parked := saturateAdmission(t, nd2)
	defer parked()
	defer release()

	start := time.Now()
	_, cerr := nd.callRetry(context.Background(), addrOnly(nd2.Addr()), request{Op: "fetch", Key: "k"}, nil, nil)
	if !IsBusy(cerr) {
		t.Fatalf("callRetry against a saturated node = %v; want BusyError", cerr)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("retry loop took %v; backoff is unbounded", d)
	}
	if got := nd.tel.retries.Value(); got != busyRetryMax {
		t.Fatalf("retries_total = %d, want %d", got, busyRetryMax)
	}
	if got := nd.tel.busyReplies.Value(); got != busyRetryMax+1 {
		t.Fatalf("busy_replies_total = %d, want %d", got, busyRetryMax+1)
	}
	if nd.peer(nd2.Addr()).strikes != 0 {
		t.Fatal("busy replies added suspicion strikes")
	}
	if !nd.peer(nd2.Addr()).busy() {
		t.Fatal("busy replies did not soft-demote the peer")
	}
}

// saturateAdmission fills a node's 1-slot, 1-deep admission controller:
// the returned release frees the held slot, parked unblocks (and then
// releases) the queue occupant. Requires MaxInflight=1, QueueDepth=1.
func saturateAdmission(t *testing.T, nd *Node) (release, parked func()) {
	t.Helper()
	r, b := nd.adm.admit(0)
	if b != nil {
		t.Fatalf("slot admit rejected: %+v", b)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Parks in the queue until release() frees the slot (memConfig's
		// DialTimeout caps the wait, so the test cannot hang).
		r2, _ := nd.adm.admit(0)
		if r2 != nil {
			r2()
		}
	}()
	waitFor(t, func() bool { return nd.adm.queued.Load() == 1 })
	return r, func() { <-done }
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedGetFallsBackWithoutSuspicion saturates a key owner's
// admission controller and requires a Get through it to (a) receive a
// typed busy rejection on the direct fetch, (b) still return the value
// via a surviving replica, and (c) leave the owner unsuspected — the
// overload ≠ crash distinction, end to end.
func TestShedGetFallsBackWithoutSuspicion(t *testing.T) {
	nw := memnet.New(61)
	nodes := memCluster(t, nw, 6, 10, 61, func(ord int, c *Config) {
		c.Replicas = 3
		if ord == 0 { // the victim: a tiny admission cap
			c.MaxInflight = 1
			c.QueueDepth = 1
		}
	})
	victim := nodes[0]

	// Find a key the victim owns; its replicas live on the leaf set.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("hot-%d", i)
		if ownerOf(t, nodes, k) == victim {
			key = k
			break
		}
	}
	if err := nodes[1].Put(key, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if h := holdersOf(nodes, key); h < 2 {
		t.Fatalf("after Put, %d holders; want >= 2", h)
	}

	release, parked := saturateAdmission(t, victim)
	released := false
	defer func() {
		if !released {
			release()
			parked()
		}
	}()

	reader := nodes[1]
	// The direct fetch is shed with the typed busy error.
	if err := reader.exchange(context.Background(), addrOnly(victim.Addr()), &request{Op: "fetch", Key: key}, &response{}, nil); !IsBusy(err) {
		t.Fatalf("fetch at the saturated owner = %v; want BusyError", err)
	}
	// The read still completes via a replica, charging no timeouts.
	v, r, err := reader.Get(key)
	if err != nil {
		t.Fatalf("Get through a shedding owner: %v", err)
	}
	if string(v) != "survives" {
		t.Fatalf("Get = %q", v)
	}
	if r.Timeouts != 0 {
		t.Fatalf("shed owner was charged %d timeouts; overload must not count as a crash", r.Timeouts)
	}
	if s := reader.peer(victim.Addr()).strikes; s != 0 {
		t.Fatalf("shed owner has %d suspicion strikes; want 0", s)
	}
	if reader.tel.busyReplies.Value() == 0 {
		t.Fatal("no busy reply was recorded")
	}
	if shed := victim.tel.admShed.Value(); shed == 0 {
		t.Fatal("victim shed nothing")
	}

	// Once the overload clears, the owner serves again without repair.
	release()
	parked()
	released = true
	waitFor(t, func() bool { return !reader.peer(victim.Addr()).busy() })
	if v, _, err := reader.Get(key); err != nil || string(v) != "survives" {
		t.Fatalf("Get after the overload cleared = %q, %v", v, err)
	}
}

// TestDeadlinePropagatedToAdmissionQueue pins deadline propagation end
// to end: a caller with a 40ms context budget queues at a saturated
// node, and the server drops the request from its admission queue at
// ~40ms — the propagated deadline — instead of holding it for the full
// queue-wait cap (DialTimeout, 200ms here). Without propagation the
// queue timeout could not fire before 200ms.
func TestDeadlinePropagatedToAdmissionQueue(t *testing.T) {
	nw := memnet.New(71)
	cfg := memConfig(nw, "a", 5, ids.CycloidID{K: 2, A: 9})
	nd, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	cfg2 := memConfig(nw, "b", 5, ids.CycloidID{K: 3, A: 9})
	cfg2.MaxInflight = 1
	cfg2.QueueDepth = 4 // deep enough that the probe queues instead of shedding
	nd2, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()

	release, busy := nd2.adm.admit(0) // hold the only slot
	if busy != nil {
		t.Fatalf("slot admit rejected: %+v", busy)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	cerr := nd.exchange(ctx, addrOnly(nd2.Addr()), &request{Op: "fetch", Key: "k"}, &response{}, nil)
	if cerr == nil {
		t.Fatal("call through a held admission slot succeeded")
	}
	// The server side must observe the propagated 40ms deadline: its
	// queue timeout fires well before the 200ms queue-wait cap.
	waitFor(t, func() bool { return nd2.tel.admQueueTimeout.Value() == 1 })
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("queue timeout fired after %v; the 40ms caller deadline was not propagated", d)
	}
}
