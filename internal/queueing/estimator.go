package queueing

import (
	"math"
	"time"
)

// DefaultHalfLife is the decay window every serving-tier Estimator takes
// when its owner configures none.
const DefaultHalfLife = 10 * time.Second

// Estimator is OccupancyStat's wall-clock sibling: the measured n_avg of a
// live queue. It integrates the exact in-flight count over time under an
// exponential window (half-life set at construction) and reports
//
//	NAvg(now) = ∫ n(s)·e^(−(now−s)/τ) ds ÷ ∫ e^(−(now−s)/τ) ds
//
// both integrals running from the start time to now. Dividing by the
// elapsed part of the window rather than by τ means a process younger than
// the window reads ∫n dt ÷ uptime and an old one reads the windowed mean,
// with no warm-up branch. Because the result is a positively weighted mean
// of in-flight counts that actually occurred, it can never exceed the peak
// in-flight count — L = λW as an identity on what is in the box, not a
// forecast. λ and W come from the same window (decayed arrivals ÷ elapsed
// window, and n_avg ÷ λ), so NAvg = Lambda·W holds by construction.
//
// Layers that see both edges of a request call Arrive and Complete; layers
// that learn a residence only when it ends call Observe, which credits the
// whole span at that instant (so Observe-fed values are for reporting, not
// for gating: a long span landing at once can exceed any in-flight count).
// The undecayed integral is kept beside the decayed one — Mean is the
// whole-life ∫n dt ÷ uptime that OccupancyStat.Mean reports for simulated
// queues.
//
// Every call is O(1) with one exponential. An Estimator carries no
// lock: each owner already serializes access under its own. Time that runs
// backwards between calls (two goroutines reading the clock before taking
// the owner's lock) is treated as no time passing.
type Estimator struct {
	tau      float64 // decay time constant, seconds (half-life / ln 2)
	start    time.Time
	last     time.Time
	inflight int
	area     float64 // decayed ∫ n dt, seconds
	window   float64 // decayed ∫ 1 dt = τ·(1 − e^(−uptime/τ)), seconds
	arrivals float64 // decayed arrival count
	total    float64 // undecayed ∫ n dt, seconds
}

// NewEstimator returns an estimator whose observation starts at start and
// whose window forgets with the given half-life (≤ 0 = DefaultHalfLife).
func NewEstimator(halfLife time.Duration, start time.Time) Estimator {
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	return Estimator{tau: halfLife.Seconds() / math.Ln2, start: start, last: start}
}

// advance integrates the constant in-flight count from the last event to
// now and ages the window.
func (e *Estimator) advance(now time.Time) {
	dt := seconds(now.Sub(e.last))
	if dt <= 0 {
		return
	}
	e.last = now
	n := float64(e.inflight)
	gain := -math.Expm1(-dt / e.tau) // 1 − e^(−dt/τ), exact for small dt
	keep := 1 - gain
	e.area = e.area*keep + n*e.tau*gain
	e.window = e.window*keep + e.tau*gain
	e.arrivals *= keep
	e.total += n * dt
}

// seconds is d in seconds by one multiplication; Duration.Seconds divides
// twice to keep whole seconds exact, which intervals this short do not need.
func seconds(d time.Duration) float64 { return float64(d) * 1e-9 }

// Arrive records one request entering at now.
func (e *Estimator) Arrive(now time.Time) {
	e.advance(now)
	e.inflight++
	e.arrivals++
}

// Complete records one request leaving at now.
func (e *Estimator) Complete(now time.Time) {
	e.advance(now)
	if e.inflight == 0 {
		panic("queueing: completion with nothing in flight")
	}
	e.inflight--
}

// Observe records one request that ended at now after the given residence,
// for layers that never saw it arrive.
func (e *Estimator) Observe(now time.Time, residence time.Duration) {
	e.advance(now)
	sec := seconds(residence)
	e.area += sec
	e.total += sec
	e.arrivals++
}

// InFlight returns the exact number of requests between Arrive and
// Complete.
func (e *Estimator) InFlight() int { return e.inflight }

// NAvg returns the windowed time-average of the in-flight count at now.
func (e *Estimator) NAvg(now time.Time) float64 {
	e.advance(now)
	if e.window == 0 {
		return float64(e.inflight)
	}
	return e.area / e.window
}

// Lambda returns the windowed arrival rate at now, per second.
func (e *Estimator) Lambda(now time.Time) float64 {
	e.advance(now)
	if e.window == 0 {
		return 0
	}
	return e.arrivals / e.window
}

// W returns the windowed mean residence in seconds: Little's identity
// inverted, NAvg ÷ Lambda. Zero before the first arrival.
func (e *Estimator) W(now time.Time) float64 {
	e.advance(now)
	if e.arrivals == 0 {
		return 0
	}
	return e.area / e.arrivals
}

// Busy returns the undecayed ∫n dt since start, in seconds. Its difference
// between two instants over their distance is the exact n_avg of that
// window, whatever the half-life.
func (e *Estimator) Busy(now time.Time) float64 { e.advance(now); return e.total }

// Mean returns the undecayed ∫n dt ÷ uptime since start — busy seconds
// over uptime, the quantity OccupancyStat.Mean reports in simulated time.
func (e *Estimator) Mean(now time.Time) float64 {
	e.advance(now)
	up := seconds(now.Sub(e.start))
	if up <= 0 {
		return float64(e.inflight)
	}
	return e.total / up
}
