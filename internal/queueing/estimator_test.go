package queueing

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"littleslaw/internal/events"
)

// span is one request of a synthetic schedule: nanosecond offsets from the
// estimator's start.
type span struct{ arrive, complete time.Duration }

// edge is one Arrive (+1) or Complete (−1) of a schedule, in time order.
type edge struct {
	at    time.Duration
	delta int
}

// randomSpans draws n requests arriving within the horizon, each resident
// up to maxResidence.
func randomSpans(rng *rand.Rand, n int, horizon, maxResidence time.Duration) []span {
	spans := make([]span, n)
	for i := range spans {
		a := time.Duration(rng.Int63n(int64(horizon)))
		spans[i] = span{a, a + 1 + time.Duration(rng.Int63n(int64(maxResidence)))}
	}
	return spans
}

// edgesOf flattens spans into time-ordered edges, completions before
// arrivals at an equal instant (either order integrates the same area).
func edgesOf(spans []span) []edge {
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.arrive, +1}, edge{s.complete, -1})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	return edges
}

var estBase = time.Unix(1_700_000_000, 0)

// TestEstimatorNAvgNeverExceedsPeakInFlight is the bound admission control
// rests on: a measured n_avg is a weighted mean of in-flight counts that
// occurred, so at no instant — on an event or between events, young window
// or old — can it exceed the peak in-flight count so far. It is why the
// limiter gates on the in-flight count alone and why a queue can never form
// behind nothing.
func TestEstimatorNAvgNeverExceedsPeakInFlight(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		halfLife := time.Duration(1+rng.Intn(20000)) * time.Millisecond
		horizon := time.Duration(1+rng.Intn(60)) * time.Second
		spans := randomSpans(rng, 1+rng.Intn(200), horizon, time.Duration(1+rng.Intn(5000))*time.Millisecond)
		e := NewEstimator(halfLife, estBase)
		peak, cur := 0, 0
		check := func(at time.Duration) {
			got := e.NAvg(estBase.Add(at))
			if got > float64(peak)*(1+1e-12) || got < 0 {
				t.Fatalf("seed %d at %s: n_avg = %.15g outside [0, peak in-flight %d]", seed, at, got, peak)
			}
		}
		last := time.Duration(0)
		for _, ed := range edgesOf(spans) {
			if gap := ed.at - last; gap > 1 {
				check(last + time.Duration(rng.Int63n(int64(gap)))) // between events
			}
			if ed.delta > 0 {
				e.Arrive(estBase.Add(ed.at))
				cur++
				peak = max(peak, cur)
			} else {
				e.Complete(estBase.Add(ed.at))
				cur--
			}
			if e.InFlight() != cur {
				t.Fatalf("seed %d: InFlight = %d, want %d", seed, e.InFlight(), cur)
			}
			check(ed.at)
			last = ed.at
		}
		// And through the idle tail, where it only decays.
		for i := 1; i <= 10; i++ {
			check(last + time.Duration(i)*halfLife)
		}
	}
}

// TestEstimatorMatchesOccupancyStatOnDrainedWindow: driven by the same
// schedule, the estimator's undecayed mean is OccupancyStat.Mean — the
// kernel's exact time-integral — and on the drained window Little's Law
// holds as an identity: mean occupancy = (arrivals ÷ window) × mean
// residence, to float noise.
func TestEstimatorMatchesOccupancyStatOnDrainedWindow(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spans := randomSpans(rng, 1+rng.Intn(300), 10*time.Second, 2*time.Second)
		e := NewEstimator(0, estBase)
		var o OccupancyStat
		o.Reset(0)
		ps := func(d time.Duration) events.Time { return events.Time(d.Nanoseconds() * 1000) }
		var residence, end time.Duration
		for _, s := range spans {
			residence += s.complete - s.arrive
			end = max(end, s.complete)
		}
		// OccupancyStat wants each departure's residence; FIFO-pairing the
		// edges gives a different per-item split with the same sum, which is
		// all the mean and the residual read.
		var open []time.Duration
		for _, ed := range edgesOf(spans) {
			if ed.delta > 0 {
				e.Arrive(estBase.Add(ed.at))
				o.Arrive(ps(ed.at))
				open = append(open, ed.at)
			} else {
				e.Complete(estBase.Add(ed.at))
				o.Depart(ps(ed.at), events.Duration(ps(ed.at-open[0])))
				open = open[1:]
			}
		}
		window := end + time.Duration(rng.Int63n(int64(time.Second)))
		got, want := e.Mean(estBase.Add(window)), o.Mean(ps(window))
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("seed %d: Estimator.Mean = %.12g, OccupancyStat.Mean = %.12g", seed, got, want)
		}
		if r := o.LittleResidual(ps(window)); r > 1e-9 {
			t.Fatalf("seed %d: OccupancyStat Little residual = %g", seed, r)
		}
		n := float64(len(spans))
		little := n / window.Seconds() * (residence.Seconds() / n)
		if r := math.Abs(got-little) / math.Max(got, little); r > 1e-9 {
			t.Fatalf("seed %d: mean %.12g vs λ·W %.12g, Little residual %g", seed, got, little, r)
		}
	}
}

// TestEstimatorClosedForm: a request resident over [a, b] contributes
// ∫ₐᵇ e^(−(T−s)/τ) ds = τ·(e^(−(T−b)/τ) − e^(−(T−a)/τ)) to the decayed
// integral at T, and the window is τ·(1 − e^(−T/τ)); n_avg is their ratio,
// λ the decayed arrivals over the same window, and W = n_avg ÷ λ.
func TestEstimatorClosedForm(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		halfLife := time.Duration(1+rng.Intn(30)) * time.Second
		tau := halfLife.Seconds() / math.Ln2
		spans := randomSpans(rng, 1+rng.Intn(50), 5*time.Second, 2*time.Second)
		e := NewEstimator(halfLife, estBase)
		for _, ed := range edgesOf(spans) {
			if ed.delta > 0 {
				e.Arrive(estBase.Add(ed.at))
			} else {
				e.Complete(estBase.Add(ed.at))
			}
		}
		T := 8.0
		end := estBase.Add(8 * time.Second)
		var area, arrivals float64
		for _, s := range spans {
			area += tau * (math.Exp(-(T-s.complete.Seconds())/tau) - math.Exp(-(T-s.arrive.Seconds())/tau))
			arrivals += math.Exp(-(T - s.arrive.Seconds()) / tau)
		}
		window := tau * (1 - math.Exp(-T/tau))
		for name, pair := range map[string][2]float64{
			"NAvg":   {e.NAvg(end), area / window},
			"Lambda": {e.Lambda(end), arrivals / window},
			"W":      {e.W(end), area / arrivals},
		} {
			if got, want := pair[0], pair[1]; math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("seed %d: %s = %.12g, closed form %.12g", seed, name, got, want)
			}
		}
		if got, lw := e.NAvg(end), e.Lambda(end)*e.W(end); math.Abs(got-lw) > 1e-12*math.Max(1, got) {
			t.Fatalf("seed %d: NAvg %.15g ≠ Lambda·W %.15g", seed, got, lw)
		}
	}
}

// TestEstimatorYoungWindowReadsUptimeMean: far younger than its window, the
// estimator's n_avg is ∫n dt ÷ uptime (and λ, W the plain count ÷ uptime and
// busy ÷ count); far older, with traffic long gone, it has forgotten — the
// reading halves per half-life while Mean remembers.
func TestEstimatorYoungWindowReadsUptimeMean(t *testing.T) {
	e := NewEstimator(time.Hour, estBase)
	for i := 0; i < 10; i++ {
		at := estBase.Add(time.Duration(i) * 400 * time.Millisecond)
		e.Arrive(at)
		e.Complete(at.Add(200 * time.Millisecond))
	}
	end := estBase.Add(4 * time.Second)
	if got := e.NAvg(end); math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("young n_avg = %g, want busy/uptime = 0.5", got)
	}
	if got := e.Lambda(end); math.Abs(got-2.5) > 5e-3 {
		t.Fatalf("young λ = %g, want 2.5/s", got)
	}
	if got := e.W(end); math.Abs(got-0.2) > 1e-3 {
		t.Fatalf("young W = %g, want 0.2 s", got)
	}
	n0 := e.NAvg(estBase.Add(20 * time.Hour))
	n1 := e.NAvg(estBase.Add(21 * time.Hour))
	if n0 <= 0 || math.Abs(n1/n0-0.5) > 1e-6 {
		t.Fatalf("idle n_avg %g → %g over one half-life, want halved", n0, n1)
	}
	if got, want := e.Mean(estBase.Add(21*time.Hour)), 2.0/(21*3600); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Mean = %g, want undecayed busy/uptime %g", got, want)
	}
}

// TestEstimatorObserveCreditsSpanAtItsEnd: Observe is Arrive+Complete for a
// layer that only learns the residence afterwards — same undecayed mean,
// same arrival count — but lands the whole span at one instant, so its
// n_avg may exceed any in-flight count and is for reporting only.
func TestEstimatorObserveCreditsSpanAtItsEnd(t *testing.T) {
	both, ends := NewEstimator(0, estBase), NewEstimator(0, estBase)
	for i := 0; i < 50; i++ {
		at := estBase.Add(time.Duration(i) * 100 * time.Millisecond)
		both.Arrive(at)
		both.Complete(at.Add(30 * time.Millisecond))
		ends.Observe(at.Add(30*time.Millisecond), 30*time.Millisecond)
	}
	end := estBase.Add(5 * time.Second)
	if a, b := both.Mean(end), ends.Mean(end); math.Abs(a-b) > 1e-12 {
		t.Fatalf("Mean: edges %g, Observe %g", a, b)
	}
	if a, b := both.NAvg(end), ends.NAvg(end); math.Abs(a-b) > 5e-3*a { // 30 ms against τ ≈ 14 s
		t.Fatalf("NAvg: edges %g, Observe %g", a, b)
	}
	if got := ends.W(end); math.Abs(got-0.030) > 1e-12 {
		t.Fatalf("W = %g, want the observed 30 ms exactly", got)
	}
	if ends.InFlight() != 0 {
		t.Fatalf("Observe moved InFlight to %d", ends.InFlight())
	}
	// One long span observed on a fresh estimator: 10 busy seconds credited
	// at t = 10 s read n_avg ≈ 1 although nothing was ever counted in flight.
	lump := NewEstimator(0, estBase)
	lump.Observe(estBase.Add(10*time.Second), 10*time.Second)
	if got := lump.NAvg(estBase.Add(10 * time.Second)); got < 1 {
		t.Fatalf("lumped n_avg = %g, want ≥ 1 (credited at the span's end)", got)
	}
}

// TestEstimatorReadsDoNotPerturb: probing between events, or a clock read
// that lands before the previous one, leaves every later reading unchanged
// to rounding.
func TestEstimatorReadsDoNotPerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spans := randomSpans(rng, 100, 10*time.Second, time.Second)
	quiet, probed := NewEstimator(time.Second, estBase), NewEstimator(time.Second, estBase)
	for _, ed := range edgesOf(spans) {
		at := estBase.Add(ed.at)
		probed.NAvg(at.Add(-time.Duration(rng.Int63n(int64(time.Second))))) // stale clock read
		probed.Mean(at)
		if ed.delta > 0 {
			quiet.Arrive(at)
			probed.Arrive(at)
		} else {
			quiet.Complete(at)
			probed.Complete(at)
		}
	}
	end := estBase.Add(12 * time.Second)
	if a, b := quiet.NAvg(end), probed.NAvg(end); math.Abs(a-b) > 1e-9*a {
		t.Fatalf("probing changed n_avg: %g vs %g", a, b)
	}
}

func TestEstimatorCompleteEmptyPanics(t *testing.T) {
	e := NewEstimator(0, estBase)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete with nothing in flight did not panic")
		}
	}()
	e.Complete(estBase)
}

func BenchmarkEstimatorArriveComplete(b *testing.B) {
	e := NewEstimator(0, estBase)
	now := estBase
	for i := 0; i < b.N; i++ {
		now = now.Add(70 * time.Microsecond)
		e.Arrive(now)
		now = now.Add(70 * time.Microsecond)
		e.Complete(now)
	}
}
