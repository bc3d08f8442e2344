package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/client"
	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/metrics"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/service"
)

// bouncyBackend is an llserved instance on a real net.Listener so it can be
// shut down and restarted on the same address — the thing httptest servers
// cannot do, and the thing a rolling restart is.
type bouncyBackend struct {
	addr string
	srv  *service.Server
	http *http.Server
}

func (b *bouncyBackend) url() string  { return "http://" + b.addr }
func (b *bouncyBackend) name() string { return b.addr }

// start boots a fresh service on addr ("" = pick a port) and serves it.
func startBouncy(t *testing.T, addr string) *bouncyBackend {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// Rebinding the same address immediately after close can transiently
	// fail; the restart path retries briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	inj, err := faults.New(1)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	srv := service.New(service.Config{
		Registry:      metrics.NewRegistry(),
		SimRunner:     runner.New(64),
		LimitCeiling:  64,
		FaultInjector: inj,
		ProfileFor: func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return experiments.PaperProfileFor(p)
		},
	})
	b := &bouncyBackend{
		addr: ln.Addr().String(),
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
	}
	go b.http.Serve(ln)
	return b
}

// stop walks the drain ladder the way cmd/llserved does on SIGTERM: flag
// draining (healthz flips, new work sheds 503), wait for the prober to
// reroute and for in-flight work to finish, then close the listener.
func (b *bouncyBackend) stop(t *testing.T, proxySees func() bool) {
	t.Helper()
	b.srv.BeginDrain()
	deadline := time.Now().Add(3 * time.Second)
	for !proxySees() {
		if time.Now().After(deadline) {
			t.Fatal("proxy never saw the backend draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for b.srv.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("backend still has %d in-flight requests past the drain deadline", b.srv.InFlight())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := b.http.Shutdown(ctx); err != nil {
		t.Fatalf("backend shutdown: %v", err)
	}
}

// TestChaosRollingRestart bounces one of three backends under closed-loop
// load: drain, wait for the proxy's probe to reroute, close the listener,
// restart on the same address, and verify the proxy folds it back into
// rotation — all with zero client-visible failures. This is the drain
// lifecycle's acceptance run: the window between "listener closes" and
// "probe notices" never exists, because the probe noticed first.
func TestChaosRollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("rolling restart needs its traffic window")
	}
	backends := make([]*bouncyBackend, 3)
	urls := make([]string, len(backends))
	for i := range backends {
		backends[i] = startBouncy(t, "")
		urls[i] = backends[i].url()
	}
	t.Cleanup(func() {
		for _, b := range backends {
			b.http.Close()
		}
	})

	p, err := New(Config{
		Backends:         urls,
		OccupancyCeiling: 1000,
		RateHalfLife:     time.Second,
		// Fast probes: the drain window a restart waits for is one probe
		// interval, not a human-scale health-check period.
		ProbeInterval:   50 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
		BreakerFailures: 3,
		// Short cooldown so the restarted backend's breaker (opened while
		// its listener was closed) half-opens quickly; the next good probe
		// closes it outright.
		BreakerCooldown:   200 * time.Millisecond,
		HedgeDelay:        -1,
		ClientMaxAttempts: 1, // failover across backends, not in-place retry
		Registry:          metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	p.Start()
	defer p.Close()
	proxyTS := httptest.NewServer(p.Handler())
	defer proxyTS.Close()

	// Wait for the first probe round so every backend is marked healthy.
	deadline := time.Now().Add(2 * time.Second)
	for {
		healthy := 0
		for _, b := range backends {
			if _, ok := p.backends[b.name()].snapshotState(); ok {
				healthy++
			}
		}
		if healthy == len(backends) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d backends healthy after startup", healthy, len(backends))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Closed-loop load through the proxy for the whole bounce. The
	// measurement-path analyze is instant (no simulation), so the load is
	// routing traffic, not CPU: the test is about where requests go. A
	// measurement body's affinity key is its platform, so the three
	// platforms are three keys — and the backend bounced below is the ring
	// owner of one actually being driven, whichever way this run's
	// ephemeral ports hash.
	const workers = 8
	platforms := []string{"SKL", "KNL", "A64FX"}
	bodies := make([]map[string]any, len(platforms))
	for i, plat := range platforms {
		bodies[i] = map[string]any{
			"platform":    plat,
			"measurement": map[string]any{"bandwidth_gbs": 80},
		}
	}
	key, ok := (&service.AnalyzeRequest{
		Platform:    platforms[0],
		Measurement: &service.MeasurementSpec{BandwidthGBs: 80},
	}).AffinityKey()
	if !ok {
		t.Fatal("measurement body has no affinity key")
	}
	name := p.ring.Owner(key)
	var bounced *bouncyBackend
	for _, b := range backends {
		if b.name() == name {
			bounced = b
		}
	}
	if bounced == nil {
		t.Fatalf("ring owner %s of %q is not one of the backends", name, key)
	}
	var okCount, failCount atomic.Int64
	var failOnce sync.Once
	var firstFail error
	phaseEnd := time.Now().Add(3 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.New(client.Config{
				BaseURL:     proxyTS.URL,
				Timeout:     10 * time.Second,
				MaxAttempts: 8,
				Backoff:     25 * time.Millisecond,
				BudgetRatio: -1,
				Seed:        int64(w + 1),
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			for i := w; time.Now().Before(phaseEnd); i++ {
				var out map[string]any
				if err := cl.PostJSON(context.Background(), "/v1/analyze", bodies[i%len(bodies)], &out); err != nil {
					failCount.Add(1)
					failOnce.Do(func() { firstFail = err })
					continue
				}
				okCount.Add(1)
			}
		}(w)
	}

	// ---- The bounce: drain, close, restart on the same address ----
	time.Sleep(500 * time.Millisecond)
	forwardsBeforeBounce := p.latency.With(name).Count()
	if forwardsBeforeBounce == 0 {
		t.Fatalf("ring owner %s of %q received no forwards before the bounce; the restart would prove nothing", name, key)
	}
	bounced.stop(t, func() bool {
		_, draining := p.backends[name].degradation()
		return draining
	})
	// Listener closed. The proxy keeps the stale draining flag (and soon an
	// open breaker) until a probe succeeds again, so nothing routes here.
	time.Sleep(200 * time.Millisecond)
	restarted := startBouncy(t, bounced.addr)
	for i, b := range backends {
		if b == bounced {
			backends[i] = restarted // so Cleanup closes the live server
		}
	}

	// The probe loop must fold the restarted backend back in: breaker
	// closed, healthy, no longer draining.
	forwardsAtRestart := p.latency.With(name).Count()
	recoverBy := time.Now().Add(3 * time.Second)
	for {
		st, healthy := p.backends[name].snapshotState()
		_, draining := p.backends[name].degradation()
		if st == BreakerClosed && healthy && !draining {
			break
		}
		if time.Now().After(recoverBy) {
			t.Fatalf("restarted backend never recovered: breaker %v healthy %v draining %v", st, healthy, draining)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()

	if n := failCount.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed across the rolling restart; first: %v",
			n, n+okCount.Load(), firstFail)
	}
	if n := okCount.Load(); n < 100 {
		t.Fatalf("only %d successes across the run; the load never exercised the bounce", n)
	}
	if after := p.latency.With(name).Count(); after <= forwardsAtRestart {
		t.Errorf("restarted backend received no forwards after rejoining (%d before, %d after)",
			forwardsAtRestart, after)
	}
	t.Logf("rolling restart: %d requests, 0 failures; %s served %d forwards, drained, restarted and served %d more",
		okCount.Load(), name, forwardsBeforeBounce, p.latency.With(name).Count()-forwardsAtRestart)
}

// TestProxyDrainLifecycle walks the proxy's BeginDrain the way
// TestDrainLifecycle walks llserved's: healthz stays 200 and reads
// "draining", unary and stream forwards shed 503 + Retry-After without
// reaching a backend, a live trace tail ends in the terminal record, and
// nothing is left in flight. BeginDrain is idempotent.
func TestProxyDrainLifecycle(t *testing.T) {
	p, stubs := newStubCluster(t, 2, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	tailResp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tailResp.Body.Close()
	if tailResp.StatusCode != http.StatusOK {
		t.Fatalf("trace tail = %d", tailResp.StatusCode)
	}
	tailDone := make(chan []string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(tailResp.Body)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				lines = append(lines, line)
			}
		}
		tailDone <- lines
	}()

	// One forwarded request, so the tail has a normal record before the
	// terminal one.
	if code := postStatus(t, ts.URL+"/v1/analyze", analyzeBody); code != http.StatusOK {
		t.Fatalf("pre-drain analyze = %d", code)
	}

	p.BeginDrain()
	p.BeginDrain() // idempotent
	if !p.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || h.Status != "draining" || !h.Draining {
		t.Fatalf("draining healthz = %d %+v (%v), want 200 and status draining", resp.StatusCode, h, err)
	}

	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/analyze", analyzeBody},
		{http.MethodPost, "/v1/watch", `{"stream":"s1"}`},
		{http.MethodGet, "/v1/watch/s1", ""},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("draining %s %s = %d, Retry-After %q; want 503 with Retry-After 1",
				req.method, req.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	hits := int64(0)
	for _, s := range stubs {
		hits += s.hits.Load()
	}
	if hits != 1 {
		t.Fatalf("backends served %d requests, want only the pre-drain one", hits)
	}

	select {
	case lines := <-tailDone:
		if len(lines) < 2 {
			t.Fatalf("trace tail = %q, want a record and then the terminal one", lines)
		}
		var last struct {
			Terminal string `json:"terminal"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Terminal != "shutdown" {
			t.Fatalf("last tail record = %s, want terminal shutdown", lines[len(lines)-1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("trace tail did not end after the drain")
	}
	if n := p.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d, want 0", n)
	}
}

func postStatus(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
