package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/faults"
	"littleslaw/internal/metrics"
	"littleslaw/internal/service"
)

// stubBackend is a scripted llserved stand-in: per-path hit counts, a
// switchable "down" mode (aborts connections, modeling a crashed process),
// a forced status and an added delay.
type stubBackend struct {
	ts     *httptest.Server
	name   string
	hits   atomic.Int64
	down   atomic.Bool
	status atomic.Int64 // 0 = 200
	delay  atomic.Int64 // nanoseconds
	navg   atomic.Int64 // milli-n_avg reported by /healthz
	// hold, when set before traffic starts, parks every /v1 request until
	// it is closed — requests genuinely in flight, for as long as a test
	// needs them.
	hold chan struct{}
}

func (s *stubBackend) handler(w http.ResponseWriter, r *http.Request) {
	if s.down.Load() {
		panic(http.ErrAbortHandler) // sever the connection: a crash, not an error response
	}
	if r.URL.Path == "/healthz" {
		navg := float64(s.navg.Load()) / 1000
		fmt.Fprintf(w, `{"status":"ok","version":"stub","limiter_navg":%g}`, navg)
		return
	}
	s.hits.Add(1)
	if s.hold != nil {
		<-s.hold
	}
	if d := time.Duration(s.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	if code := int(s.status.Load()); code != 0 && code != http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"error":"scripted %d"}`, code)
		return
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/watch"):
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, `{"seq":%d,"backend":%q}`+"\n", i, s.name)
			fl.Flush()
		}
	case r.URL.Path == "/v1/faults":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"enabled":false,"backend":%q}`, s.name)
	default:
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"backend":%q}`, s.name)
	}
}

// newStubCluster spins n stub backends and a proxy over them with
// test-friendly defaults: no background prober, no hedging, single-attempt
// forwarding, a private fault injector, and a fast breaker.
func newStubCluster(t *testing.T, n int, mutate func(*Config)) (*Proxy, []*stubBackend) {
	t.Helper()
	stubs := make([]*stubBackend, n)
	urls := make([]string, n)
	for i := range stubs {
		s := &stubBackend{}
		s.ts = httptest.NewServer(http.HandlerFunc(s.handler))
		s.name = strings.TrimPrefix(s.ts.URL, "http://")
		t.Cleanup(s.ts.Close)
		stubs[i] = s
		urls[i] = s.ts.URL
	}
	inj, err := faults.New(1)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	cfg := Config{
		Backends:          urls,
		ProbeInterval:     -1,
		HedgeDelay:        -1,
		ClientMaxAttempts: 1,
		ClientTimeout:     5 * time.Second,
		BreakerFailures:   3,
		BreakerCooldown:   time.Minute,
		Registry:          metrics.NewRegistry(),
		FaultInjector:     inj,
		Seed:              42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(p.Close)
	return p, stubs
}

// waitFor polls for a condition the test cannot hook (a request reaching a
// stub's handler) with a deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func stubByName(stubs []*stubBackend, name string) *stubBackend {
	for _, s := range stubs {
		if s.name == name {
			return s
		}
	}
	return nil
}

const analyzeBody = `{"platform":"KNL","workload":"ISx","scale":0.02}`

// TestProxyAffinityRoutesConsistently: identical analyze requests must all
// land on the ring owner of their runner-cache identity.
func TestProxyAffinityRoutesConsistently(t *testing.T) {
	p, stubs := newStubCluster(t, 3, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	req, err := service.DecodeAnalyzeRequest([]byte(analyzeBody))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	key, ok := req.AffinityKey()
	if !ok {
		t.Fatalf("test body has no affinity key")
	}
	owner := p.ring.Owner(key)

	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d", i, resp.StatusCode)
		}
	}
	ownerStub := stubByName(stubs, owner)
	if got := ownerStub.hits.Load(); got != 10 {
		t.Fatalf("ring owner %s served %d of 10 identical requests", owner, got)
	}
}

// TestProxyOccupancyOverrideSpills: when the affinity owner's occupancy is
// past the ceiling, the request joins the least-loaded backend instead and
// the override is counted. The occupancy is real: requests held in flight
// at the owner until they reach its ceiling of five (the rule is load ≥
// ceiling), and the next one spills.
func TestProxyOccupancyOverrideSpills(t *testing.T) {
	p, stubs := newStubCluster(t, 3, func(c *Config) { c.OccupancyCeiling = 5 })
	req, _ := service.DecodeAnalyzeRequest([]byte(analyzeBody))
	key, _ := req.AffinityKey()
	owner := p.backends[p.ring.Owner(key)]
	ownerStub := stubByName(stubs, owner.Name)
	ownerStub.hold = make(chan struct{})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
		if err != nil {
			t.Errorf("post: %v", err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const held = 5
	var wg sync.WaitGroup
	for i := 0; i < held; i++ {
		// One at a time, so each is routed while the owner is still under
		// the ceiling: 0..4 in flight on arrival, the last one reaching it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := post(); code != http.StatusOK {
				t.Errorf("held request: status %d", code)
			}
		}()
		waitFor(t, func() bool { return ownerStub.hits.Load() == int64(i+1) })
	}
	if got := owner.load(time.Now()); got != held {
		t.Fatalf("owner load = %v with %d requests parked on it", got, held)
	}
	if got := p.overrides.Value(); got != 0 {
		t.Fatalf("affinity overrides = %d while the owner was under its ceiling", got)
	}

	if code := post(); code != http.StatusOK {
		t.Fatalf("spilled request: status %d", code)
	}
	if got := ownerStub.hits.Load(); got != held {
		t.Fatalf("owner with %d in flight (ceiling 5) still took the next request", held)
	}
	if got := p.overrides.Value(); got != 1 {
		t.Fatalf("affinity overrides = %d, want 1", got)
	}
	close(ownerStub.hold)
	wg.Wait()
}

// TestProxyFailoverOnServerError: a retryable status from the first
// candidate spills the request to the next, and the client still sees 200.
func TestProxyFailoverOnServerError(t *testing.T) {
	p, stubs := newStubCluster(t, 2, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	cands, _ := p.candidates("", false)
	first := cands[0]
	stubByName(stubs, first.Name).status.Store(http.StatusInternalServerError)

	// No affinity key (unknown platform): routed purely by load.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"platform":"nope"}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", resp.StatusCode)
	}
	if got := p.failovers.Value(); got == 0 {
		t.Fatalf("failover not counted")
	}
	if got := p.requests.With(first.Name, "server_error").Value(); got != 1 {
		t.Fatalf("server_error outcome for first candidate = %d, want 1", got)
	}
}

// TestProxyBreakerIsolatesDeadBackend: failed probes open the dead
// backend's breaker; traffic flows only to survivors; with every breaker
// open the proxy sheds with 503 + Retry-After.
func TestProxyBreakerIsolatesDeadBackend(t *testing.T) {
	p, stubs := newStubCluster(t, 2, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	dead, live := stubs[0], stubs[1]
	dead.down.Store(true)
	for i := 0; i < 3; i++ {
		p.ProbeAll(t.Context())
	}
	if st, healthy := p.backends[dead.name].snapshotState(); st != BreakerOpen || healthy {
		t.Fatalf("dead backend: state %v healthy %v after 3 failed probes", st, healthy)
	}
	if p.probeFailures.With(dead.name).Value() != 3 {
		t.Fatalf("probe failures = %d, want 3", p.probeFailures.With(dead.name).Value())
	}

	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
		if err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d with a live backend available", i, resp.StatusCode)
		}
	}
	if got := live.hits.Load(); got != 5 {
		t.Fatalf("live backend served %d of 5", got)
	}

	live.down.Store(true)
	for i := 0; i < 3; i++ {
		p.ProbeAll(t.Context())
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
	if err != nil {
		t.Fatalf("post with all backends down: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with every breaker open, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After")
	}
	if p.noBackend.Value() != 1 {
		t.Fatalf("no-backend sheds = %d, want 1", p.noBackend.Value())
	}
}

// TestProxyProbeReportsBackendOccupancy: a 200 probe carries the backend's
// self-reported limiter n_avg to llproxy_backend_reported_navg and the
// proxy's /healthz reported_navg — and leaves routing as it was: the load
// is what this proxy has in flight there.
func TestProxyProbeReportsBackendOccupancy(t *testing.T) {
	p, stubs := newStubCluster(t, 2, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	before, _ := p.candidates("", false)
	head := stubByName(stubs, before[0].Name)
	head.navg.Store(7250) // /healthz reports limiter_navg 7.25
	p.ProbeAll(t.Context())

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("llproxy_backend_reported_navg{backend=%q} 7.25\n", head.name); !strings.Contains(string(metricsBody), want) {
		t.Fatalf("/metrics missing %q", want)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	for _, b := range h.Backends {
		want := 0.0
		if b.Name == head.name {
			want = 7.25
		}
		if b.ReportedNAvg != want {
			t.Fatalf("healthz backend %s reported_navg = %v, want %v", b.Name, b.ReportedNAvg, want)
		}
	}

	after, _ := p.candidates("", false)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("candidate %d after the probe = %s, before = %s: a reported n_avg moved routing",
				i, after[i].Name, before[i].Name)
		}
	}
}

// TestProxyHedgedGetRacesSecondBackend: a GET whose primary outlives the
// hedge delay is answered by the hedge lane long before the primary would
// have finished.
func TestProxyHedgedGetRacesSecondBackend(t *testing.T) {
	p, stubs := newStubCluster(t, 2, func(c *Config) { c.HedgeDelay = 50 * time.Millisecond })
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	slow, fast := stubs[0], stubs[1]
	slow.delay.Store(int64(2 * time.Second))
	// Tip the load order so the slow backend is the primary: one stuck
	// request on the fast one.
	p.backends[fast.name].arrive(time.Now())

	begin := time.Now()
	resp, err := http.Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(begin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), fast.name) {
		t.Fatalf("response came from %s, want hedge winner %s", body, fast.name)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("hedge did not shortcut the slow primary (%v)", elapsed)
	}
	if p.hedges.Value() != 1 {
		t.Fatalf("hedges = %d, want 1", p.hedges.Value())
	}
}

// TestProxyForwardFaultSite: an injected error at cluster.forward answers
// 502 + Retry-After without touching any backend.
func TestProxyForwardFaultSite(t *testing.T) {
	inj, err := faults.New(7, faults.Rule{Site: ForwardFaultSite, Kind: faults.KindError, P: 1})
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	p, stubs := newStubCluster(t, 2, func(c *Config) { c.FaultInjector = inj })
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var apiErr service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("error body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("injected 502 without Retry-After")
	}
	if apiErr.Error == "" {
		t.Fatalf("empty error body")
	}
	for _, s := range stubs {
		if s.hits.Load() != 0 {
			t.Fatalf("backend %s reached despite injected proxy fault", s.name)
		}
	}
	if got := inj.FiredTotal(); got == 0 {
		t.Fatalf("fault site never fired")
	}
}

// TestProxyProbeFaultSite: injected probe errors open breakers without any
// real backend failure — the chaos lever for the prober path.
func TestProxyProbeFaultSite(t *testing.T) {
	inj, err := faults.New(7, faults.Rule{Site: ProbeFaultSite, Kind: faults.KindError, P: 1})
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	p, _ := newStubCluster(t, 2, func(c *Config) { c.FaultInjector = inj })
	for i := 0; i < 3; i++ {
		p.ProbeAll(t.Context())
	}
	for name, b := range p.backends {
		if st, _ := b.snapshotState(); st != BreakerOpen {
			t.Fatalf("backend %s: state %v after 3 injected probe faults, want open", name, st)
		}
	}
}

// TestProxyStreamPinnedRouting: the stream's creator and its subscribers
// must meet on the ring owner of the stream name, and events must flow
// through the proxy unbuffered.
func TestProxyStreamPinnedRouting(t *testing.T) {
	p, stubs := newStubCluster(t, 3, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	owner := p.ring.Owner(service.StreamAffinityKey("s1"))

	post, err := http.Post(ts.URL+"/v1/watch", "application/json",
		strings.NewReader(`{"stream":"s1","kind":"bandwidth"}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	postBody, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("post status %d", post.StatusCode)
	}
	sub, err := http.Get(ts.URL + "/v1/watch/s1")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	subBody, _ := io.ReadAll(sub.Body)
	sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", sub.StatusCode)
	}
	if ct := sub.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type %q not relayed", ct)
	}

	for _, body := range []string{string(postBody), string(subBody)} {
		if !strings.Contains(body, owner) {
			t.Fatalf("stream served by wrong backend: %q, want owner %s", body, owner)
		}
	}
	if got := stubByName(stubs, owner).hits.Load(); got != 2 {
		t.Fatalf("stream owner %s served %d of 2 stream requests", owner, got)
	}
	if got := p.requests.With(owner, "stream").Value(); got != 2 {
		t.Fatalf("stream outcome count = %d, want 2", got)
	}
}

// TestProxyFaultsFanout: one /v1/faults call reaches every backend and the
// response maps backend name to its individual reply.
func TestProxyFaultsFanout(t *testing.T) {
	p, stubs := newStubCluster(t, 3, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/faults")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var perBackend map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&perBackend); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(perBackend) != 3 {
		t.Fatalf("fanout reached %d of 3 backends: %v", len(perBackend), perBackend)
	}
	for _, s := range stubs {
		if _, ok := perBackend[s.name]; !ok {
			t.Fatalf("backend %s missing from fanout response", s.name)
		}
		if s.hits.Load() != 1 {
			t.Fatalf("backend %s hit %d times", s.name, s.hits.Load())
		}
	}
	_ = p
}

// TestProxyHealthzBody: the proxy's own health view lists every backend
// with breaker state and both occupancy estimates.
func TestProxyHealthzBody(t *testing.T) {
	p, stubs := newStubCluster(t, 3, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q, want ok", h.Status)
	}
	if h.Version == "" {
		t.Fatalf("missing version")
	}
	if len(h.Backends) != len(stubs) {
		t.Fatalf("%d backends in healthz, want %d", len(h.Backends), len(stubs))
	}
	for _, b := range h.Backends {
		if !b.Healthy || b.Breaker != "closed" {
			t.Fatalf("backend %s: healthy=%v breaker=%q at startup", b.Name, b.Healthy, b.Breaker)
		}
	}
}

// TestProxyMetricsExposition: the llproxy_* family renders, including the
// derived per-backend gauges.
func TestProxyMetricsExposition(t *testing.T) {
	p, _ := newStubCluster(t, 2, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"llproxy_requests_total{backend=",
		"llproxy_backend_navg{backend=",
		"llproxy_backend_up{backend=",
		"llproxy_breaker_state{backend=",
		"llproxy_littles_law_concurrency",
		"llproxy_request_seconds_count{backend=",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestProxyConfigValidation: constructor rejects empty, relative and
// duplicate backends.
func TestProxyConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("no error for zero backends")
	}
	if _, err := New(Config{Backends: []string{"not-a-url"}}); err == nil {
		t.Fatalf("no error for relative backend URL")
	}
	if _, err := New(Config{Backends: []string{"http://h:1", "http://h:1"}}); err == nil {
		t.Fatalf("no error for duplicate backends")
	}
}
