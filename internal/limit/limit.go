// Package limit applies the paper's own metric to the server that computes
// it: admission control via Little's Law. A Limiter counts exactly what it
// has admitted and not yet seen complete, and gates on that count against
// an MSHR-style ceiling — the same shape as the paper's
// occupancy-vs-capacity verdict for a cache level. Arrivals under the
// ceiling are admitted; arrivals at the ceiling wait in a bounded FIFO with
// a deadline; arrivals beyond the queue are shed with a drain-time
// Retry-After hint, exactly as an MSHR-full cache rejects a new miss rather
// than queueing unboundedly. A queue therefore only ever forms behind
// requests that are in flight, and every completion hands its slot to the
// queue's head. llserved runs two: one in front of its unary routes and
// one, with no queue, capping /v1/watch subscribers.
//
// Beside the gate the Limiter measures n_avg the way the paper checks
// Equation 2 — as the windowed time-average of that in-flight count (a
// queueing.Estimator over queueing.DefaultHalfLife; DESIGN.md "How every
// layer measures n_avg"). It explains a stall afterwards; it decides
// nothing. Only the Retry-After hint reads it (as W); /metrics and
// /healthz report it.
package limit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"littleslaw/internal/faults"
	"littleslaw/internal/queueing"
	"littleslaw/internal/trace"
)

// FaultSite is the admission path's fault-injection point, evaluated once
// per Acquire before any limiter state is touched. It honors latency
// faults only (a slow admission decision — lock contention, a stalled
// scheduler — is the realistic failure here; the limiter's own shed path
// already models refusal).
const FaultSite = "limit.acquire"

// Config tunes a Limiter. Zero values take the documented defaults.
type Config struct {
	// Ceiling is the MSHR-style occupancy limit: admission is denied while
	// this many requests are in flight (0 = 64).
	Ceiling float64
	// MaxQueue bounds the admission FIFO where arrivals wait for a slot
	// once the ceiling is reached (0 = 2×Ceiling rounded up; negative =
	// no queue, shed immediately).
	MaxQueue int
	// QueueTimeout is the per-request deadline a queued arrival waits
	// before being shed (0 = 5s). The request's own context deadline
	// applies as well, whichever is sooner.
	QueueTimeout time.Duration
	// Now is the clock (tests; nil = time.Now).
	Now func() time.Time
}

func (c *Config) normalize() {
	if c.Ceiling == 0 {
		c.Ceiling = 64
	}
	if c.Ceiling < 1 {
		c.Ceiling = 1
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = int(math.Ceil(2 * c.Ceiling))
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// ErrShed is the sentinel every shed decision wraps; errors.Is(err, ErrShed)
// distinguishes load shedding from context expiry.
var ErrShed = errors.New("limit: admission denied")

// ShedError reports a shed with the estimated time until a slot frees.
type ShedError struct {
	// RetryAfter is the drain-time hint for the client's Retry-After
	// header, already rounded up to a whole second.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("limit: admission denied, retry after %s", e.RetryAfter)
}

// Is makes errors.Is(err, ErrShed) true for every ShedError.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// Snapshot is a point-in-time view of the limiter for /metrics.
type Snapshot struct {
	// NAvg is the measured occupancy: the windowed time-average of
	// InFlight.
	NAvg float64
	// Ceiling is the configured occupancy limit.
	Ceiling float64
	// InFlight is the number of admitted, uncompleted requests.
	InFlight int
	// QueueDepth is the number of arrivals waiting for admission.
	QueueDepth int
	// Admitted, Queued and Shed count decisions since construction
	// (Queued counts arrivals that entered the FIFO; those later granted
	// also count as Admitted, those timed out also count as Shed).
	Admitted uint64
	Queued   uint64
	Shed     uint64
}

// Limiter is the adaptive admission controller. Construct with New; all
// methods are safe for concurrent use.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	est      queueing.Estimator // exact in-flight and its windowed mean
	queue    []chan struct{}    // FIFO of waiters, each closed at grant time
	admitted uint64
	queued   uint64
	shed     uint64
}

// New builds a Limiter.
func New(cfg Config) *Limiter {
	cfg.normalize()
	return &Limiter{cfg: cfg, est: queueing.NewEstimator(queueing.DefaultHalfLife, cfg.Now())}
}

// Acquire asks to admit one request. It returns a release function that
// must be called exactly once when the request completes (it hands the slot
// to the queue), plus whether the request waited in the queue before
// admission. A denial returns a *ShedError (matching ErrShed) when the
// limiter shed the request, or the context's error when ctx expired while
// queued. The route names the request class for the caller's own decision
// metrics; the limiter itself keeps one occupancy integral across all of
// them — a time-integral needs no per-class W.
func (l *Limiter) Acquire(ctx context.Context, route string) (release func(), waited bool, err error) {
	// The whole Acquire is queue wait from the request's point of view:
	// record it as the "limit" stage of the request's trace, noted with
	// the admission decision. Untraced requests pay one context lookup.
	if tr := trace.FromContext(ctx); tr != nil {
		entered := time.Now()
		defer func() {
			note := "admitted"
			switch {
			case errors.Is(err, ErrShed):
				note = "shed"
			case err != nil:
				note = "expired"
			case waited:
				note = "queued"
			}
			tr.Add("limit", note, time.Since(entered), 0)
		}()
	}
	if f := faults.Global().Eval(FaultSite); f.Kind == faults.KindLatency {
		f.Sleep(ctx)
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	now := l.cfg.Now()
	l.mu.Lock()
	// Admit immediately only past an empty queue (FIFO fairness: a new
	// arrival never overtakes a queued one).
	if len(l.queue) == 0 && float64(l.est.InFlight()) < l.cfg.Ceiling {
		l.admitLocked(now)
		l.mu.Unlock()
		return l.releaser(), false, nil
	}
	if l.cfg.MaxQueue < 0 || len(l.queue) >= l.cfg.MaxQueue {
		l.shed++
		hint := l.retryAfterLocked(now)
		l.mu.Unlock()
		return nil, false, &ShedError{RetryAfter: hint}
	}
	grant := make(chan struct{})
	l.queue = append(l.queue, grant)
	l.queued++
	l.mu.Unlock()

	timer := time.NewTimer(l.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case <-grant:
		return l.releaser(), true, nil
	case <-ctx.Done():
		if l.abandon(grant) {
			return nil, true, ctx.Err()
		}
		// Granted concurrently with cancellation: hand the slot straight
		// back (no work was done).
		<-grant
		l.release()
		return nil, true, ctx.Err()
	case <-timer.C:
		if l.abandon(grant) {
			l.mu.Lock()
			l.shed++
			hint := l.retryAfterLocked(l.cfg.Now())
			l.mu.Unlock()
			return nil, true, &ShedError{RetryAfter: hint}
		}
		// Granted concurrently with the timeout: the slot is ours, use it.
		<-grant
		return l.releaser(), true, nil
	}
}

// admitLocked books one admission: the in-flight count (and through it the
// occupancy integral) and the decision counter.
func (l *Limiter) admitLocked(now time.Time) {
	l.est.Arrive(now)
	l.admitted++
}

// releaser returns the completion callback for an admitted request.
// Idempotent: extra calls are no-ops.
func (l *Limiter) releaser() func() {
	var once sync.Once
	return func() { once.Do(l.release) }
}

// release frees one slot and grants queued waiters while slots remain.
// Every queued waiter sits behind a request in flight (a queue forms only
// at the ceiling), so completions alone always drain the queue.
func (l *Limiter) release() {
	now := l.cfg.Now()
	l.mu.Lock()
	l.est.Complete(now)
	for len(l.queue) > 0 && float64(l.est.InFlight()) < l.cfg.Ceiling {
		close(l.queue[0])
		l.queue = l.queue[1:]
		l.admitLocked(now)
	}
	l.mu.Unlock()
}

// abandon removes a still-queued waiter, reporting whether it was removed
// (false means the grant already fired and the slot belongs to the caller).
func (l *Limiter) abandon(grant chan struct{}) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, q := range l.queue {
		if q == grant {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return true
		}
	}
	return false
}

// retryAfterLocked estimates when a shed client should retry: the time for
// the queue (plus this request) to drain at the current service rate.
// Ceiling slots each turning over every W seconds serve Ceiling/W req/s,
// so the wait is (depth+1) × W / Ceiling with W = n_avg/λ from the measured
// window, clamped to [1s, 30s] and rounded up to whole seconds (the
// Retry-After header's resolution).
func (l *Limiter) retryAfterLocked(now time.Time) time.Duration {
	est := float64(len(l.queue)+1) * l.est.W(now) / l.cfg.Ceiling
	wait := time.Duration(math.Ceil(est)) * time.Second
	return min(max(wait, time.Second), 30*time.Second)
}

// Snapshot returns the current state for metrics export.
func (l *Limiter) Snapshot() Snapshot {
	now := l.cfg.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	return Snapshot{
		NAvg:       l.est.NAvg(now),
		Ceiling:    l.cfg.Ceiling,
		InFlight:   l.est.InFlight(),
		QueueDepth: len(l.queue),
		Admitted:   l.admitted,
		Queued:     l.queued,
		Shed:       l.shed,
	}
}
