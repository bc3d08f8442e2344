package cluster

import (
	"math"
	"sort"
	"testing"
	"time"

	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
)

// testBackend builds a bare backend whose estimator starts at the fake
// clock's epoch.
func testBackend(halfLife, cooldown time.Duration) *Backend {
	return &Backend{
		Name:     "test:1",
		est:      queueing.NewEstimator(halfLife, time.Unix(0, 0)),
		cooldown: cooldown,
		healthy:  true,
	}
}

// TestBackendNAvgMatchesOccupancyAt is the golden test tying the proxy's
// per-backend estimator to the paper pipeline, the cluster-tier twin of the
// limiter's own golden test: replay a steady synthetic trace (λ = 200/s,
// W = 25 ms) under a fake clock and check the measured n_avg against
// queueing.Curve.OccupancyAt on a flat profile. Little's Law on both
// sides: λ·W = 5.
func TestBackendNAvgMatchesOccupancyAt(t *testing.T) {
	const (
		lambda    = 200.0
		service   = 25 * time.Millisecond
		lineBytes = 64
		duration  = 5 * time.Second
	)
	b := testBackend(500*time.Millisecond, time.Second)

	type event struct{ at time.Time }
	interval := time.Duration(float64(time.Second) / lambda)
	var pending []event
	var clock time.Time
	for at := time.Unix(0, 0); at.Sub(time.Unix(0, 0)) < duration; at = at.Add(interval) {
		sort.Slice(pending, func(i, j int) bool { return pending[i].at.Before(pending[j].at) })
		for len(pending) > 0 && !pending[0].at.After(at) {
			b.complete(pending[0].at)
			pending = pending[1:]
		}
		clock = at
		b.arrive(clock)
		pending = append(pending, event{at: at.Add(service)})
	}
	got := b.navg(clock)

	curve := queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 0, LatencyNs: service.Seconds() * 1e9},
		{BandwidthGBs: 100, LatencyNs: service.Seconds() * 1e9},
	})
	want := curve.OccupancyAt(lambda*lineBytes/1e9, lineBytes)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("backend n_avg = %.4f, OccupancyAt = %.4f (diverges > 2%%)", got, want)
	}
	if lw := lambda * service.Seconds(); math.Abs(want-lw) > 1e-9 {
		t.Fatalf("OccupancyAt = %v, want λ·W = %v", want, lw)
	}
}

// TestBackendNAvgDecays: with arrivals stopped, the reading halves every
// half-life — stale load memories cannot repel traffic forever.
func TestBackendNAvgDecays(t *testing.T) {
	halfLife := time.Second
	b := testBackend(halfLife, time.Second)
	now := time.Unix(0, 0)
	// Ten half-lives of back-to-back 50 ms forwards, so the window is full
	// and what follows is pure decay.
	for i := 0; i < 200; i++ {
		b.arrive(now)
		now = now.Add(50 * time.Millisecond)
		b.complete(now)
	}
	n0 := b.navg(now)
	if math.Abs(n0-1) > 0.01 {
		t.Fatalf("n_avg = %.3f with one forward always in flight, want 1", n0)
	}
	n1 := b.navg(now.Add(halfLife))
	if ratio := n1 / n0; math.Abs(ratio-0.5) > 0.01 {
		t.Fatalf("after one half-life n_avg ratio = %.3f, want 0.5", ratio)
	}
}

// TestBackendLoadIsInFlight: the routing load is the forwards in flight to
// the backend. A burst counts the moment it lands and stops counting the
// moment it completes, while the windowed mean — reported, not routed on —
// still remembers it.
func TestBackendLoadIsInFlight(t *testing.T) {
	b := testBackend(time.Second, time.Second)
	now := time.Unix(0, 0)
	if got := b.load(); got != 0 {
		t.Fatalf("idle load = %v, want 0", got)
	}
	b.arrive(now)
	b.arrive(now)
	if got := b.load(); got != 2 {
		t.Fatalf("load with 2 in flight = %v, want 2", got)
	}
	now = now.Add(time.Second)
	b.complete(now)
	b.complete(now)
	if got := b.load(); got != 0 {
		t.Fatalf("load just after the burst completed = %v, want 0", got)
	}
	if n := b.navg(now); math.Abs(n-2) > 1e-9 {
		t.Fatalf("n_avg just after the burst = %v, want its mean 2", n)
	}
}

// TestBackendStallNeverSpills is the cluster half of the hit_serve defect:
// 2 closed-loop clients at W = 70 µs, one 50 ms stall, the default
// occupancy ceiling of 32. The forecast λ·W read the stall as hundreds of
// requests at the owner and sent its keys elsewhere; measured, two clients
// are at most 2, so every routing decision answers "owner" and no affinity
// override is ever counted.
func TestBackendStallNeverSpills(t *testing.T) {
	clock := time.Unix(0, 0)
	p, _ := newStubCluster(t, 3, func(c *Config) { c.Now = func() time.Time { return clock } })
	req, _ := service.DecodeAnalyzeRequest([]byte(analyzeBody))
	key, _ := req.AffinityKey()
	owner := p.backends[p.ring.Owner(key)]
	const rounds = 60000
	for round := 0; round < rounds; round++ {
		for c := 0; c < 2; c++ {
			cands, decision := p.candidates(key, false)
			if decision != routeOwner || cands[0] != owner {
				t.Fatalf("round %d client %d: routed %q to %s with %d in flight at the owner (load %.2f)",
					round, c, decision, cands[0].Name, c, owner.load())
			}
			owner.arrive(clock)
		}
		w := 70 * time.Microsecond
		if round == rounds/2 {
			w = 50 * time.Millisecond
		}
		clock = clock.Add(w)
		owner.complete(clock)
		owner.complete(clock)
		if n := owner.navg(clock); n > 2 {
			t.Fatalf("round %d: owner n_avg = %g with only 2 clients", round, n)
		}
	}
	if got := p.overrides.Value(); got != 0 {
		t.Fatalf("affinity overrides = %d, want 0", got)
	}
}

// TestSpillEndsWithTheBurst: spill follows what is in flight at the owner,
// not what was. Five forwards parked at the owner for three half-lives put
// it at its ceiling of five and the sixth request spills; the moment all
// five complete, the owner takes its key back, although its windowed n_avg
// still reads five.
func TestSpillEndsWithTheBurst(t *testing.T) {
	clock := time.Unix(0, 0)
	p, _ := newStubCluster(t, 3, func(c *Config) {
		c.OccupancyCeiling = 5
		c.Now = func() time.Time { return clock }
	})
	req, _ := service.DecodeAnalyzeRequest([]byte(analyzeBody))
	key, _ := req.AffinityKey()
	owner := p.backends[p.ring.Owner(key)]
	for i := 0; i < 5; i++ {
		owner.arrive(clock)
	}
	clock = clock.Add(3 * queueing.DefaultHalfLife)
	if cands, decision := p.candidates(key, false); decision != routeSpill || cands[0] == owner {
		t.Fatalf("6th request with 5 parked at the owner: routed %q to %s, want a spill off %s",
			decision, cands[0].Name, owner.Name)
	}
	for i := 0; i < 5; i++ {
		owner.complete(clock)
	}
	if cands, decision := p.candidates(key, false); decision != routeOwner || cands[0] != owner {
		t.Fatalf("burst completed: routed %q to %s with nothing in flight at owner %s (its n_avg %.2f)",
			decision, cands[0].Name, owner.Name, owner.navg(clock))
	}
	if got := p.overrides.Value(); got != 1 {
		t.Fatalf("affinity overrides = %d, want 1 (the spill during the burst)", got)
	}
}

// TestOwnerLeadingAtCeilingIsNotASpill: with every backend at the ceiling
// and the owner the least loaded, the request goes to its owner, so the
// route span says "owner" — not "spill <owner>" — and no override counts.
func TestOwnerLeadingAtCeilingIsNotASpill(t *testing.T) {
	clock := time.Unix(0, 0)
	p, _ := newStubCluster(t, 3, func(c *Config) {
		c.OccupancyCeiling = 2
		c.Now = func() time.Time { return clock }
	})
	req, _ := service.DecodeAnalyzeRequest([]byte(analyzeBody))
	key, _ := req.AffinityKey()
	owner := p.backends[p.ring.Owner(key)]
	for _, b := range p.order {
		n := 3
		if b == owner {
			n = 2
		}
		for i := 0; i < n; i++ {
			b.arrive(clock)
		}
	}
	if cands, decision := p.candidates(key, false); decision != routeOwner || cands[0] != owner {
		t.Fatalf("every backend at the ceiling, owner least loaded: routed %q to %s, want owner %s",
			decision, cands[0].Name, owner.Name)
	}
	if got := p.overrides.Value(); got != 0 {
		t.Fatalf("affinity overrides = %d, want 0", got)
	}
}

// TestBreakerTransitions drives the full circuit: closed under failures
// below the threshold, open at the threshold, rejecting during cooldown,
// one half-open trial after it, reopening on a failed trial, closing on
// success.
func TestBreakerTransitions(t *testing.T) {
	cooldown := 5 * time.Second
	b := testBackend(time.Second, cooldown)
	now := time.Unix(0, 0)

	for i := 0; i < 2; i++ {
		b.failure(now)
		if !b.allow(now) {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.failure(now)
	if st, healthy := b.snapshotState(); st != BreakerOpen || healthy {
		t.Fatalf("after 3 failures: state %v healthy %v, want open/unhealthy", st, healthy)
	}
	if b.allow(now.Add(cooldown - time.Millisecond)) {
		t.Fatalf("open breaker admitted during cooldown")
	}

	trialAt := now.Add(cooldown)
	if !b.allow(trialAt) {
		t.Fatalf("no half-open trial after cooldown")
	}
	if st, _ := b.snapshotState(); st != BreakerHalfOpen {
		t.Fatalf("state after trial grant = %v, want half-open", st)
	}
	if b.allow(trialAt) {
		t.Fatalf("second request admitted while the trial is in flight")
	}

	// A failed trial reopens immediately and re-arms the cooldown.
	b.failure(trialAt)
	if st, _ := b.snapshotState(); st != BreakerOpen {
		t.Fatalf("state after failed trial = %v, want open", st)
	}
	if b.allow(trialAt.Add(cooldown - time.Millisecond)) {
		t.Fatalf("reopened breaker admitted before a full fresh cooldown")
	}
	retryAt := trialAt.Add(cooldown)
	if !b.allow(retryAt) {
		t.Fatalf("no second trial after the re-armed cooldown")
	}

	// A successful trial closes the breaker and clears the streak.
	b.success()
	if st, healthy := b.snapshotState(); st != BreakerClosed || !healthy {
		t.Fatalf("after successful trial: state %v healthy %v, want closed/healthy", st, healthy)
	}
	if !b.allow(retryAt) {
		t.Fatalf("closed breaker rejected")
	}
	// The streak reset means two fresh failures still do not open it.
	b.failure(retryAt)
	b.failure(retryAt)
	if st, _ := b.snapshotState(); st != BreakerClosed {
		t.Fatalf("failure streak not reset by success")
	}
}

func TestBreakerStateString(t *testing.T) {
	for st, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
	} {
		if got := st.String(); got != want {
			t.Fatalf("state %d String() = %q, want %q", st, got, want)
		}
	}
}
