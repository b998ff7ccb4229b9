// Client-side overload discipline: the typed busy error and the
// per-node retry budget.
//
// A busy reply (or the pool's local saturation rejection) never feeds
// the dial-failure counter or the peer's suspicion strikes — the peer
// completed an exchange, so it is demonstrably alive. Instead it opens
// the peer's soft-demotion window in the peer table (p2p/peers.go) for
// roughly its retry-after hint, where candidate ordering demotes it
// behind clean candidates the same way a one-strike suspect is demoted;
// and direct calls (fetch, store) may retry it
// after a jittered exponential backoff honoring the hint, spending from
// a token bucket that earns a fraction of completed request volume —
// so cluster-wide retry traffic stays bounded at roughly
// retryBudgetRatio of offered load instead of amplifying the overload.
package p2p

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BusyError reports a peer that is alive but shedding load: its
// admission queue was full (server-side) or the local pool refused to
// queue more work onto it (ErrPeerSaturated). Callers route around it
// or retry within the budget; it must never be treated as a crash.
type BusyError struct {
	Addr       string
	RetryAfter time.Duration // the shedding side's backoff hint
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("p2p: %s is overloaded (retry after %v)", e.Addr, e.RetryAfter)
}

// IsBusy reports whether err marks an overloaded (not dead) peer.
func IsBusy(err error) bool {
	var be *BusyError
	return errors.As(err, &be)
}

const (
	// Retry budget: the bucket starts with retryBudgetInitial tokens,
	// earns retryBudgetRatio per completed exchange (so sustained retry
	// volume is ~10% of request volume) and holds at most
	// retryBudgetCap so an idle period cannot bank an unbounded burst.
	retryBudgetInitial = 10
	retryBudgetRatio   = 0.1
	retryBudgetCap     = 100

	// Busy-retry backoff: exponential from busyBackoffBase, capped at
	// busyBackoffMax, never shorter than the server's retry-after hint,
	// plus up to 50% jitter so synchronized clients don't re-converge.
	busyRetryMax    = 3
	busyBackoffBase = 2 * time.Millisecond
	busyBackoffMax  = 250 * time.Millisecond

	// defaultRetryAfter stands in for a hint when the rejection was
	// local (pool saturation) and no server estimate exists.
	defaultRetryAfter = 5 * time.Millisecond

	// overloadFloor is the minimum soft-demotion window; hints shorter
	// than this would expire before the current route finishes.
	overloadFloor = 10 * time.Millisecond
)

// retryBudget is the per-node token bucket bounding busy retries. It
// counts in tenths of a token so the 0.1-per-exchange earn rate stays
// exact — ten completed exchanges fund precisely one retry, with no
// floating-point drift.
type retryBudget struct {
	mu   sync.Mutex
	deci int64 // tokens × 10
	tel  *nodeMetrics
}

func newRetryBudget(tel *nodeMetrics) *retryBudget {
	b := &retryBudget{deci: retryBudgetInitial * 10, tel: tel}
	tel.retryTokens.Set(retryBudgetInitial)
	return b
}

// earn credits the bucket for one completed exchange.
func (b *retryBudget) earn() {
	b.mu.Lock()
	if b.deci += retryBudgetRatio * 10; b.deci > retryBudgetCap*10 {
		b.deci = retryBudgetCap * 10
	}
	b.tel.retryTokens.Set(b.deci / 10)
	b.mu.Unlock()
}

// take spends one token; false means the budget is exhausted and the
// caller must give up rather than add retry load.
func (b *retryBudget) take() bool {
	b.mu.Lock()
	ok := b.deci >= 10
	if ok {
		b.deci -= 10
	}
	b.tel.retryTokens.Set(b.deci / 10)
	b.mu.Unlock()
	return ok
}

// jitterState drives a cheap splitmix64 stream for backoff jitter.
// math/rand's global state is deliberately not used: seeded harnesses
// stay deterministic on every path that never retries.
var jitterState atomic.Uint64

// jitter returns a uniform duration in [0, d).
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(mix(jitterState.Add(0x9e3779b97f4a7c15)) % uint64(d))
}

// callRetry is exchange plus a budgeted retry loop for busy replies:
// jittered exponential backoff honoring the shedding side's retry-after
// hint, each retry paid for from the token bucket. Direct per-key
// calls (fetch, store) use it; routing does not — stepping around an
// overloaded hop via soft demotion is cheaper than waiting it out.
//
// Every attempt is its own call span (a retried exchange shows up as
// N siblings, the gaps between them the backoff waits), and the anomaly
// paths force sampling: a busy reply marks the operation "shed", an
// exhausted token bucket marks it "retry-exhausted". A fetch reply's
// value lands in dst's backing array when it has room (see exchange).
func (n *Node) callRetry(ctx context.Context, to entry, req request, dst []byte, ot *opTrace) (resp response, err error) {
	backoff := busyBackoffBase
	for attempt := 0; ; attempt++ {
		resp = response{Value: dst}
		err = n.exchange(ctx, to, &req, &resp, ot, nil)
		var be *BusyError
		if attempt == busyRetryMax || !errors.As(err, &be) {
			return resp, err
		}
		ot.force("shed")
		wait := max(backoff, be.RetryAfter)
		wait += jitter(wait / 2)
		if d, ok := ctx.Deadline(); ok && time.Until(d) <= wait {
			return resp, err // the hint outlives the caller's deadline
		}
		if !n.budget.take() {
			n.tel.retryExhausted.Inc()
			ot.force("retry-exhausted")
			return resp, err
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return resp, err
		case <-t.C:
		}
		n.tel.retries.Inc()
		backoff = min(2*backoff, busyBackoffMax)
	}
}
