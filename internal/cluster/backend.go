// Per-backend state: the spillover half of the routing algebra. Each
// backend counts the forwards this proxy has outstanding to it — the
// spill signal — in a queueing.Estimator, the same type internal/limit
// keeps on a single server, which also reports their windowed n_avg. Beside
// it: a consecutive-failure circuit breaker and the health view the prober
// maintains from /healthz bodies.
package cluster

import (
	"net/http"
	"sync"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/client"
	"littleslaw/internal/queueing"
)

// BreakerState is a backend's circuit-breaker position.
type BreakerState int

const (
	// BreakerClosed: healthy, requests flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: too many consecutive transport failures; no requests
	// until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed, one trial request is probing.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Backend is one llserved instance behind the proxy.
type Backend struct {
	// Name labels the backend in metrics and the ring (host:port).
	Name string
	// URL is the backend's base URL.
	URL string

	cl    *client.Client // unary forwards: retries, backoff, Retry-After
	httpc *http.Client   // streams and probes: single attempt, no retries

	// Breaker tuning, copied from the proxy config.
	maxFails int // consecutive transport failures that open the breaker
	cooldown time.Duration

	mu sync.Mutex
	// est measures the forwards outstanding to this backend: exact
	// in-flight and its windowed mean n_avg.
	est queueing.Estimator
	// Health, from the prober.
	healthy  bool
	reported float64 // backend's own limiter n_avg from its last /healthz body (reported only)
	mode     brownout.Mode
	draining bool
	// Breaker.
	state    BreakerState
	fails    int
	openedAt time.Time
}

// arrive records a forwarded request starting.
func (b *Backend) arrive(now time.Time) {
	b.mu.Lock()
	b.est.Arrive(now)
	b.mu.Unlock()
}

// complete records a forwarded request finishing, however it ended: a
// transport error or a canceled hedge occupied the backend's lane for as
// long as it lasted.
func (b *Backend) complete(now time.Time) {
	b.mu.Lock()
	b.est.Complete(now)
	b.mu.Unlock()
}

// navg is the measured occupancy at now: the windowed time-average of the
// forwards in flight to this backend.
func (b *Backend) navg(now time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.est.NAvg(now)
}

// load is the routing signal: the forwards this proxy has in flight to the
// backend. A burst counts the moment it lands and stops counting the moment
// it completes; load the proxy cannot see is answered by 429 failover and
// the B2+ reroute, not by a reported mean. It takes the clock like the
// backend's other readings (navg, allow), though a count has no window.
func (b *Backend) load(time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.est.InFlight())
}

// allow reports whether the breaker admits a request at now, transitioning
// Open→HalfOpen once per cooldown: the first caller after the cooldown gets
// the trial; others stay rejected until the trial resolves.
func (b *Backend) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	case BreakerHalfOpen:
		return false
	}
	return true
}

// success records a proof of liveness (any HTTP response, or a 200 probe):
// the breaker closes and the failure streak resets.
func (b *Backend) success() {
	b.mu.Lock()
	b.fails = 0
	b.state = BreakerClosed
	b.healthy = true
	b.mu.Unlock()
}

// failure records a transport-level failure (connect refused, reset,
// probe timeout). Reaching maxFails — or failing the half-open trial —
// opens the breaker; openedAt re-arms on every failure so a backend that
// keeps refusing keeps the breaker open a full cooldown past its last
// observed failure.
func (b *Backend) failure(now time.Time) {
	b.mu.Lock()
	b.fails++
	if b.fails >= b.maxFails || b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = now
		b.healthy = false
	}
	b.mu.Unlock()
}

// probeOK records a healthy probe and what the backend reported about
// itself: its limiter n_avg (a gauge and /healthz field), its brownout
// rung, and whether it is draining for shutdown.
func (b *Backend) probeOK(reportedNAvg float64, mode brownout.Mode, draining bool) {
	b.success()
	b.mu.Lock()
	b.reported = reportedNAvg
	b.mode = mode
	b.draining = draining
	b.mu.Unlock()
}

// degradation returns the backend's last-probed brownout mode and whether
// it is draining — the routing penalties candidates applies.
func (b *Backend) degradation() (brownout.Mode, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mode, b.draining
}

// snapshotState returns the breaker state and health for metrics.
func (b *Backend) snapshotState() (BreakerState, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.healthy
}
