package limit

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"littleslaw/internal/queueing"
)

// The limiter's n_avg is Equation 1 measured rather than forecast: the
// exponentially windowed time-integral of its own in-flight count over the
// elapsed part of the window (queueing.Estimator). These property tests pin
// that algebra through the limiter's public surface on random workloads
// under a fake clock: the reading must match the integral's closed form,
// must not depend on how concurrent admissions interleave, must scale the
// way Little's Law says it does, and must decay to nothing once traffic
// stops.

// fakeClock is a hand-cranked time source for deterministic limiter runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) advanceTo(t time.Time) { c.now = t }
func (c *fakeClock) add(d time.Duration)   { c.now = c.now.Add(d) }

// op is one timed limiter action: admit on a route, or release a prior
// admission.
type op struct {
	at      time.Time
	route   string
	release bool
}

// runWorkload replays timed ops against a fresh limiter built at `start`
// and returns it with the clock at `end`. The ceiling is set high enough
// that nothing queues, so the run exercises the estimator, not the gate.
func runWorkload(t *testing.T, start time.Time, ops []op, end time.Time) *Limiter {
	t.Helper()
	clk := &fakeClock{now: start}
	l := New(Config{Ceiling: 1e9, Now: clk.Now})
	releases := map[string]func(){}
	for _, o := range ops {
		if o.at.Before(clk.now) {
			t.Fatalf("ops out of order: %v before %v", o.at, clk.now)
		}
		clk.advanceTo(o.at)
		if o.release {
			releases[o.route]()
			continue
		}
		rel, waited, err := l.Acquire(context.Background(), o.route)
		if err != nil || waited {
			t.Fatalf("acquire %s: err=%v waited=%v (ceiling should admit everything)", o.route, err, waited)
		}
		releases[o.route] = rel
	}
	clk.advanceTo(end)
	snap := l.Snapshot()
	if snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Fatalf("workload left inflight=%d queue=%d", snap.InFlight, snap.QueueDepth)
	}
	return l
}

// TestNAvgMatchesClosedForm: a request admitted at a and released at a+W
// adds ∫ e^(−(T−s)/τ) ds over [a, a+W] to the windowed integral at T, and
// the elapsed window is τ·(1 − e^(−(T−start)/τ)), so
//
//	n_avg(T) = Σ_r (e^(−(T − a_r − W_r)/τ) − e^(−(T − a_r)/τ)) / (1 − e^(−(T − start)/τ))
//
// Random workloads must match it to floating-point accuracy.
func TestNAvgMatchesClosedForm(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	tau := queueing.DefaultHalfLife.Seconds() / math.Ln2
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		var ops []op
		type span struct {
			admit time.Time
			lat   float64
		}
		spans := make(map[string]span, n)
		for i := 0; i < n; i++ {
			route := string(rune('a'+i%26)) + string(rune('0'+i/26))
			admit := base.Add(time.Duration(rng.Int63n(int64(5 * time.Second))))
			lat := time.Duration(1 + rng.Int63n(int64(2*time.Second)))
			spans[route] = span{admit: admit, lat: lat.Seconds()}
			ops = append(ops,
				op{at: admit, route: route},
				op{at: admit.Add(lat), route: route, release: true})
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at.Before(ops[j].at) })
		end := base.Add(8 * time.Second)
		got := runWorkload(t, base, ops, end).Snapshot().NAvg
		want := 0.0
		for _, s := range spans {
			age := end.Sub(s.admit).Seconds()
			want += math.Exp(-(age-s.lat)/tau) - math.Exp(-age/tau)
		}
		want /= 1 - math.Exp(-end.Sub(base).Seconds()/tau)
		if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, want) {
			t.Fatalf("seed %d: n_avg = %g, closed form = %g (n=%d requests)", seed, got, want, n)
		}
	}
}

// TestNAvgInvariantUnderPermutedInterleavings: when several routes admit at
// the same instant, the order in which their Acquire calls hit the limiter
// is scheduler luck — the reading must not depend on it. Same for
// same-instant completions. An integral over time cannot see the order of
// events that share an instant, so every permutation of the concurrent
// batch must land on the identical n_avg, bit for bit.
func TestNAvgInvariantUnderPermutedInterleavings(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	routes := []string{"analyze", "advise", "tune", "tables", "characterize"}
	lats := []time.Duration{120 * time.Millisecond, 340 * time.Millisecond,
		2 * time.Second, 340 * time.Millisecond, 120 * time.Millisecond}
	end := base.Add(5 * time.Second)

	build := func(admitOrder, releaseOrder []int) []op {
		var ops []op
		// All admissions at t=0, in the given order; each route releases at
		// its own latency, two pairs of routes sharing an instant, so both
		// the admit batch and the equal-time releases are permuted.
		for _, i := range admitOrder {
			ops = append(ops, op{at: base, route: routes[i]})
		}
		for _, i := range releaseOrder {
			ops = append(ops, op{at: base.Add(lats[i]), route: routes[i], release: true})
		}
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].at.Before(ops[b].at) })
		return ops
	}

	identity := []int{0, 1, 2, 3, 4}
	want := runWorkload(t, base, build(identity, identity), end).Snapshot().NAvg
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		admitOrder := rng.Perm(len(routes))
		releaseOrder := rng.Perm(len(routes))
		got := runWorkload(t, base, build(admitOrder, releaseOrder), end).Snapshot().NAvg
		if got != want {
			t.Fatalf("trial %d: admit order %v, release order %v gave n_avg %g, identity gave %g",
				trial, admitOrder, releaseOrder, got, want)
		}
	}
	if want <= 0 {
		t.Fatalf("n_avg = %g, want positive for a busy window", want)
	}
}

// TestNAvgScalesWithLatency: Little's Law is linear in W — doubling every
// request's service latency (with admission times fixed) must exactly
// double the time-integral of the in-flight count, and with it the
// whole-life mean. The windowed reading weights the added, later half of
// each span a little more than the first (it is more recent), so it grows
// by a factor between 2 and 2·e^(W_max/τ) — linear to first order in W/τ,
// and exactly the closed form above.
func TestNAvgScalesWithLatency(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	end := base.Add(6 * time.Second)
	lats := []time.Duration{100, 250, 700, 1300}
	workload := func(scale time.Duration) []op {
		var ops []op
		for i, lat := range lats {
			route := string(rune('a' + i))
			ops = append(ops,
				op{at: base.Add(time.Duration(i) * 200 * time.Millisecond), route: route},
				op{at: base.Add(time.Duration(i)*200*time.Millisecond + lat*scale), route: route, release: true})
		}
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].at.Before(ops[b].at) })
		return ops
	}
	one := runWorkload(t, base, workload(time.Millisecond), end)
	two := runWorkload(t, base, workload(2*time.Millisecond), end)
	mean1, mean2 := one.est.Mean(end), two.est.Mean(end)
	if mean1 <= 0 {
		t.Fatalf("baseline mean occupancy = %g, want positive", mean1)
	}
	if ratio := mean2 / mean1; math.Abs(ratio-2) > 1e-9 {
		t.Fatalf("doubling all latencies scaled ∫n dt by %g, want exactly 2", ratio)
	}
	tau := queueing.DefaultHalfLife.Seconds() / math.Ln2
	upper := 2 * math.Exp((1300*time.Millisecond).Seconds()/tau)
	if ratio := two.Snapshot().NAvg / one.Snapshot().NAvg; ratio < 2 || ratio > upper {
		t.Fatalf("doubling all latencies scaled windowed n_avg by %g, want within [2, %g]", ratio, upper)
	}
}

// TestNAvgDecaysToZero: once traffic stops, the reading must fall
// monotonically and below any threshold within a bounded number of
// half-lives — the property the recovery phase of the shed/recover e2e
// rests on.
func TestNAvgDecaysToZero(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	clk := &fakeClock{now: base}
	l := New(Config{Ceiling: 1e9, Now: clk.Now})
	for i := 0; i < 50; i++ {
		rel, _, err := l.Acquire(context.Background(), "burst")
		if err != nil {
			t.Fatal(err)
		}
		clk.add(10 * time.Millisecond)
		rel()
	}
	busy := l.Snapshot().NAvg
	if busy <= 0 {
		t.Fatalf("busy n_avg = %g, want positive", busy)
	}
	prev := busy
	for i := 0; i < 30; i++ {
		clk.add(queueing.DefaultHalfLife)
		cur := l.Snapshot().NAvg
		if cur >= prev {
			t.Fatalf("n_avg went from %g to %g with no traffic, want strictly falling", prev, cur)
		}
		prev = cur
	}
	// The integral halves per half-life while the window it is divided by
	// only grows: 30 idle half-lives leave at most 2^-30 of the busy reading.
	if limit := busy / (1 << 30); prev > limit {
		t.Fatalf("n_avg = %g after 30 idle half-lives, want ≤ %g", prev, limit)
	}
}
