// Per-backend state: the spillover half of the routing algebra. Each
// backend counts the forwards this proxy has outstanding to it — the
// spill signal — in a queueing.Estimator, the same type internal/limit
// keeps on a single server, which also reports their windowed n_avg. Beside
// it: a consecutive-failure circuit breaker, the health view the prober
// maintains from /healthz bodies, and the lane (lane.go) every exchange
// with the backend travels.
package cluster

import (
	"sync"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/queueing"
)

// breakerFailures is the consecutive transport-failure count that opens a
// backend's breaker.
const breakerFailures = 3

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

	lane   lane   // the keep-alive connections every exchange with it uses
	prefix string // the URL's path, before every forwarded path ("" mostly)

	notes [numWords]string // "<name> <word>" trace span notes, built once

	cooldown time.Duration // open breaker's wait before a half-open trial

	mu sync.Mutex
	// est measures the forwards outstanding to this backend: exact
	// in-flight and its windowed mean n_avg.
	est queueing.Estimator
	// Health, from the prober.
	healthy  bool
	mode     brownout.Mode
	draining bool
	// Breaker.
	state    BreakerState
	fails    int
	openedAt time.Time
}

// word is a forward's outcome or a routing decision: the outcome label of
// llproxy_requests_total, and the word after a backend's name in the note
// of a forward or route trace span.
type word uint8

const (
	outcomeOK word = iota
	outcomeShed
	outcomeClientError
	outcomeServerError
	outcomeError // a transport failure
	outcomeCanceled
	outcomeStream
	routeOwner    // the affinity owner leads
	routePinned   // a stream pinned to its owner
	routeSpill    // the owner is at the occupancy ceiling; another leads
	routeDegraded // the owner browned out; a fuller backend leads
	routeLoad     // no affinity identity: least in flight leads
	numWords
)

var words = [numWords]string{
	outcomeOK:          "ok",
	outcomeShed:        "shed",
	outcomeClientError: "client_error",
	outcomeServerError: "server_error",
	outcomeError:       "error",
	outcomeCanceled:    "canceled",
	outcomeStream:      "stream",
	routeOwner:         "owner",
	routePinned:        "pinned",
	routeSpill:         "spill",
	routeDegraded:      "degraded",
	routeLoad:          "load",
}

func (w word) String() string { return words[w] }

// note returns "<name> <word>", the note of a trace span about b.
func (b *Backend) note(w word) string { return b.notes[w] }

// arrive records a forwarded request starting.
func (b *Backend) arrive(now time.Time) {
	b.mu.Lock()
	b.est.Arrive(now)
	b.mu.Unlock()
}

// complete records a forwarded request finishing, however it ended: a
// transport error or a caller's cancellation occupied the backend's lane
// for as long as it lasted.
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
// the B2+ reroute, not by a reported mean.
func (b *Backend) load() float64 {
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
// probe timeout). Reaching breakerFailures — or failing the half-open trial —
// opens the breaker; openedAt re-arms on every failure so a backend that
// keeps refusing keeps the breaker open a full cooldown past its last
// observed failure.
func (b *Backend) failure(now time.Time) {
	b.mu.Lock()
	b.fails++
	if b.fails >= breakerFailures || b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = now
		b.healthy = false
	}
	b.mu.Unlock()
}

// probeOK records a healthy probe and what the backend reported about
// itself: its brownout rung, and whether it is draining for shutdown.
func (b *Backend) probeOK(mode brownout.Mode, draining bool) {
	b.success()
	b.mu.Lock()
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
