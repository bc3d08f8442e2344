package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/client"
	"littleslaw/internal/faults"
	"littleslaw/internal/metrics"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
)

// TestChaosClusterFailover is the end-to-end acceptance run for the
// scale-out tier: three real llserved backends behind the proxy, a
// closed-loop load of 2× one node's admission capacity, and one backend
// killed mid-run. The proxy must (a) open the dead backend's breaker and
// rehash its keys onto the survivors with zero client-visible failures,
// and (b) keep per-backend occupancy books that agree with the paper
// pipeline: each survivor's llproxy_backend_navg gauge must match
// queueing.Curve.OccupancyAt at that backend's measured arrival rate and
// latency within 5%.
func TestChaosClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes ~10s of wall-clock traffic")
	}
	// Backend handlers carry an injected 250ms latency so service time is
	// dominated by a known, stable W (the simulations themselves finish in
	// tens of milliseconds and would make W noisy).
	inj, err := faults.New(42, faults.Rule{
		Site: "handler.*", Kind: faults.KindLatency, P: 1, D: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	// Ceiling 6 per backend: with W = 250ms one node admits λ·W ≤ 6, i.e.
	// ~24 closed-loop workers would saturate one node; 12 workers are 2×
	// one node's steady concurrency, comfortably served by two survivors.
	backends := newServiceBackends(t, 3, 6, inj)
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.ts.URL
	}
	p, err := New(Config{
		Backends: urls,
		// High ceiling: this run exercises failover; the affinity-override
		// policy has its own test and must not blur the occupancy books.
		OccupancyCeiling: 1000,
		// A short half-life so the estimator tracks each phase of the run.
		RateHalfLife:      time.Second,
		ProbeInterval:     200 * time.Millisecond,
		ProbeTimeout:      500 * time.Millisecond,
		BreakerFailures:   3,
		BreakerCooldown:   30 * time.Second, // no half-open trials inside the run
		HedgeDelay:        -1,
		ClientMaxAttempts: 1, // failover, not in-place retry, is under test
		Registry:          metrics.NewRegistry(),
		FaultInjector:     inj, // no cluster.* rules armed; isolates from faults.Global()
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	p.Start()
	defer p.Close()
	proxyTS := httptest.NewServer(p.Handler())
	defer proxyTS.Close()

	const nKeys = 12
	bodies := analyzeBodies(t, nKeys)

	// Warm every key on every backend directly (not through the proxy):
	// after the kill, rehashed keys must not pay cold-simulation cost in
	// the middle of the overload — under -race a burst of concurrent cold
	// simulations saturates the CPU and stalls the whole run. Failover is
	// what phase 1 measures; cache affinity has its own test.
	var warmWG sync.WaitGroup
	for _, b := range backends {
		warmWG.Add(1)
		go func(base string) {
			defer warmWG.Done()
			for _, body := range bodies {
				resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("warm %s: %v", base, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("warm %s: status %d", base, resp.StatusCode)
					return
				}
			}
		}(b.ts.URL)
	}
	warmWG.Wait()
	if t.Failed() {
		t.Fatalf("warmup failed")
	}

	// ---- Phase 1: closed-loop overload with a mid-run kill ----
	const workers = 12
	var okCount, failCount atomic.Int64
	var failOnce sync.Once
	var firstFail error
	killAt := time.After(time.Second)
	phaseEnd := time.Now().Add(3 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.New(client.Config{
				BaseURL: proxyTS.URL,
				// Generous per-attempt deadline: under -race the whole
				// stack runs severalfold slower, and the assertion here is
				// eventual success, not latency.
				Timeout:     15 * time.Second,
				MaxAttempts: 8,
				Backoff:     50 * time.Millisecond,
				BudgetRatio: -1,
				Seed:        int64(w + 1),
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			for i := 0; time.Now().Before(phaseEnd); i++ {
				var out map[string]any
				err := cl.PostJSON(context.Background(), "/v1/analyze",
					mustRaw(t, bodies[(w+i)%nKeys]), &out)
				if err != nil {
					failCount.Add(1)
					failOnce.Do(func() { firstFail = err })
					continue
				}
				okCount.Add(1)
			}
		}(w)
	}
	<-killAt
	killed := backends[0]
	killedName := strings.TrimPrefix(killed.ts.URL, "http://")
	killed.ts.CloseClientConnections()
	killed.ts.Close()
	wg.Wait()

	if n := okCount.Load(); n < 50 {
		t.Fatalf("only %d successes during the overload phase", n)
	}
	if n := failCount.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed despite retries and failover; first: %v",
			n, n+okCount.Load(), firstFail)
	}
	if st, healthy := p.backends[killedName].snapshotState(); st != BreakerOpen || healthy {
		t.Fatalf("killed backend %s: breaker %v healthy %v, want open/unhealthy", killedName, st, healthy)
	}
	t.Logf("phase 1: %d requests, 0 failures, breaker open for %s", okCount.Load(), killedName)

	// ---- Phase 2: steady open-loop traffic; audit the occupancy books ----
	survivors := []string{
		strings.TrimPrefix(backends[1].ts.URL, "http://"),
		strings.TrimPrefix(backends[2].ts.URL, "http://"),
	}
	deadRequestsBefore := p.latency.With(killedName).Count()

	// Build a key set each survivor owns half of, selected from a pool of
	// candidate analyses. Ring splits of an arbitrary dozen keys can be
	// lopsided (one survivor drawing 2/3 of the traffic past its admission
	// ceiling into an unstable queueing regime), and this audit is about
	// the accuracy of the per-backend books, not about ownership luck.
	isSurvivor := func(name string) bool { return name != killedName }
	perSurvivor := 5
	owned := map[string][]string{}
	for i := 0; len(owned[survivors[0]]) < perSurvivor || len(owned[survivors[1]]) < perSurvivor; i++ {
		if i >= 200 {
			t.Fatalf("could not balance steady-phase keys across survivors")
		}
		body := fmt.Sprintf(`{"platform":"KNL","workload":"ISx","scale":%g}`, 0.02+0.002*float64(i))
		req, err := service.DecodeAnalyzeRequest([]byte(body))
		if err != nil {
			t.Fatalf("candidate body: %v", err)
		}
		key, ok := req.AffinityKey()
		if !ok {
			t.Fatalf("candidate body has no affinity key")
		}
		owner, _ := p.ring.OwnerWhere(key, isSurvivor)
		if len(owned[owner]) < perSurvivor {
			owned[owner] = append(owned[owner], body)
		}
	}
	steadyBodies := make([]string, 0, 2*perSurvivor)
	for i := 0; i < perSurvivor; i++ {
		steadyBodies = append(steadyBodies, owned[survivors[0]][i], owned[survivors[1]][i])
	}
	// Warm each steady key before opening the traffic spigot: a first
	// request simulates, and under -race a handful of concurrent cold
	// simulations is enough CPU backlog to push the survivors into the
	// queueing regime the audit must stay out of.
	for _, body := range steadyBodies {
		postOK(t, proxyTS.URL+"/v1/analyze", body)
	}

	type snap struct {
		count uint64
		sum   float64
	}
	snapshot := func() map[string]snap {
		m := make(map[string]snap, len(survivors))
		for _, name := range survivors {
			h := p.latency.With(name)
			m[name] = snap{count: h.Count(), sum: h.Sum()}
		}
		return m
	}

	// ~20 arrivals/s, uniform, round-robin over the key set: open loop, so
	// λ is set by the clock, not by backend speed. The rate must keep each
	// survivor's λ·W safely under its admission ceiling even when -race
	// overhead inflates W — past the ceiling, shed-and-spill feedback makes
	// λ and W co-fluctuate and a point estimate of λ·W stops matching the
	// windowed product (legitimately: Little's Law needs stationarity). Low
	// rate, wide window: counting noise is 1/Δcount per survivor.
	const (
		interval  = 50 * time.Millisecond
		steadyFor = 9 * time.Second
		measureAt = 2 * time.Second // histogram window start: steady from here
		// Gauge sampling starts later than the histogram window: the
		// estimator's window (τ ≈ 1.44s) still remembers the slower warmup
		// traffic at 2s; by 4s its residual is under 1%. The histogram
		// window tolerates the earlier start because λ and W are constant
		// across the steady phase.
		gaugeFrom = 4 * time.Second
		lineBytes = 64
		minLambda = 5.0  // don't audit backends the traffic barely touched
		tolerance = 0.05 // the acceptance bound: gauges within 5% of OccupancyAt
	)
	var loadWG sync.WaitGroup
	var snap1 map[string]snap
	var snap1At time.Time
	// The audit compares window averages on both sides: λ and W from
	// histogram deltas, and the gauge sampled periodically through the
	// window (an instantaneous read is biased by the phase of the
	// deterministic key cycle; the 5-tick stride is coprime to the
	// per-backend arrival period, so samples sweep every phase).
	gaugeSamples := make(map[string][]float64, len(survivors))
	begin := time.Now()
	ticker := time.NewTicker(interval)
	for i := 0; time.Since(begin) < steadyFor; i++ {
		<-ticker.C
		if snap1 == nil && time.Since(begin) >= measureAt {
			snap1 = snapshot()
			snap1At = time.Now()
		}
		if i%5 == 0 && time.Since(begin) >= gaugeFrom {
			at := time.Now()
			for _, name := range survivors {
				gaugeSamples[name] = append(gaugeSamples[name], p.backends[name].navg(at))
			}
		}
		loadWG.Add(1)
		go func(body string) {
			defer loadWG.Done()
			resp, err := http.Post(proxyTS.URL+"/v1/analyze", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(steadyBodies[i%len(steadyBodies)])
	}
	ticker.Stop()
	// Close the books at the instant traffic stops: the estimator decays
	// the moment arrivals cease, so the histogram window ends here too.
	now := time.Now()
	snap2 := snapshot()
	gauges := make(map[string]float64, len(survivors))
	for _, name := range survivors {
		sum := 0.0
		for _, v := range gaugeSamples[name] {
			sum += v
		}
		if n := len(gaugeSamples[name]); n > 0 {
			gauges[name] = sum / float64(n)
		}
	}
	window := now.Sub(snap1At)
	loadWG.Wait()

	if snap1 == nil {
		t.Fatalf("steady phase ended before the measurement boundary")
	}
	audited := 0
	for _, name := range survivors {
		dc := snap2[name].count - snap1[name].count
		if dc == 0 {
			t.Errorf("survivor %s served nothing in the measurement window", name)
			continue
		}
		lambda := float64(dc) / window.Seconds()
		w := (snap2[name].sum - snap1[name].sum) / float64(dc)
		if lambda < minLambda {
			t.Logf("survivor %s: λ=%.1f/s below audit floor, skipping", name, lambda)
			continue
		}
		// The paper pipeline's view of the same occupancy: a flat
		// bandwidth→latency profile at the backend's measured W, queried at
		// the bandwidth its measured arrival rate implies.
		curve := queueing.MustCurve([]queueing.CurvePoint{
			{BandwidthGBs: 0, LatencyNs: w * 1e9},
			{BandwidthGBs: 100, LatencyNs: w * 1e9},
		})
		want := curve.OccupancyAt(lambda*lineBytes/1e9, lineBytes)
		got := gauges[name]
		diff := math.Abs(got-want) / want
		t.Logf("survivor %s: λ=%.1f/s W=%.0fms gauge n_avg=%.2f OccupancyAt=%.2f (Δ %.1f%%)",
			name, lambda, w*1000, got, want, diff*100)
		if diff > tolerance {
			t.Errorf("survivor %s: llproxy_backend_navg=%.3f vs OccupancyAt=%.3f diverges %.1f%% (> %.0f%%)",
				name, got, want, diff*100, tolerance*100)
		}
		audited++
	}
	if audited == 0 {
		t.Fatalf("no survivor carried enough traffic to audit the occupancy books")
	}
	if after := p.latency.With(killedName).Count(); after != deadRequestsBefore {
		t.Errorf("killed backend still received %d forwards after its breaker opened", after-deadRequestsBefore)
	}
}

// mustRaw re-decodes a JSON body into a generic value for client.PostJSON.
func mustRaw(t *testing.T, body string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("bad body %q: %v", body, err)
	}
	return m
}
