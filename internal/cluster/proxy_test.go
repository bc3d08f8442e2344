package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/faults"
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
		if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1") // as llserved sheds
		}
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
// test-friendly defaults: no background prober, a private fault injector,
// and a breaker that stays open for the whole test.
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
		Backends:        urls,
		ProbeInterval:   -1,
		BreakerCooldown: time.Minute,
		FaultInjector:   inj,
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

// TestProxyAffinityRoutesEveryKind: a repeated characterize, tune, batch or
// table request lands, every time, on the ring owner of the identity its
// request type declares — the backend whose profile or runner cache it
// warmed the first time.
func TestProxyAffinityRoutesEveryKind(t *testing.T) {
	p, stubs := newStubCluster(t, 3, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	batch := service.BatchAnalyzeRequest{Requests: []service.AnalyzeRequest{{Platform: "SKL", Workload: "CoMD", Scale: 0.03}}}
	cases := []struct {
		name, method, path, body string
		key                      func() (string, bool)
	}{
		{"characterize", http.MethodPost, "/v1/characterize", `{"platform":"A64FX"}`,
			(&service.CharacterizeRequest{Platform: "A64FX"}).AffinityKey},
		{"tune", http.MethodPost, "/v1/tune", `{"platform":"KNL","workload":"HPCG","scale":0.05}`,
			(&service.TuneRequest{Platform: "KNL", Workload: "HPCG", Scale: 0.05}).AffinityKey},
		{"batch", http.MethodPost, "/v1/analyze/batch", `{"requests":[{"platform":"SKL","workload":"CoMD","scale":0.03}]}`,
			batch.AffinityKey},
		{"table", http.MethodGet, "/v1/tables/VI?scale=0.04", "",
			func() (string, bool) { return service.TableAffinityKey("VI", 0.04) }},
	}
	for _, tc := range cases {
		key, ok := tc.key()
		if !ok {
			t.Fatalf("%s: no affinity key", tc.name)
		}
		owner := stubByName(stubs, p.ring.Owner(key))
		before := make([]int64, len(stubs))
		for i, s := range stubs {
			before[i] = s.hits.Load()
		}
		for i := 0; i < 3; i++ {
			req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %d: %v", tc.name, i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %d: status %d", tc.name, i, resp.StatusCode)
			}
		}
		for i, s := range stubs {
			want := int64(0)
			if s == owner {
				want = 3
			}
			if got := s.hits.Load() - before[i]; got != want {
				t.Errorf("%s: backend %s served %d of 3 repeats, want %d (owner %s)", tc.name, s.name, got, want, owner.name)
			}
		}
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
	if got := owner.load(); got != held {
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
// The first candidate is asked exactly once: failover is the proxy's only
// retry, so a shed's Retry-After never parks the request at its owner.
func TestProxyFailoverOnServerError(t *testing.T) {
	for _, code := range []int{http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusTooManyRequests} {
		t.Run(strconv.Itoa(code), func(t *testing.T) {
			p, stubs := newStubCluster(t, 2, nil)
			ts := httptest.NewServer(p.Handler())
			defer ts.Close()

			cands, _ := p.candidates("", false)
			first := stubByName(stubs, cands[0].Name)
			first.status.Store(int64(code))

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
			if got := first.hits.Load(); got != 1 {
				t.Fatalf("first candidate asked %d times, want 1", got)
			}
			if got := p.failovers.Value(); got != 1 {
				t.Fatalf("failovers = %d, want 1", got)
			}
			if got := p.requests.With(first.name, outcomeOf(code).String()).Value(); got != 1 {
				t.Fatalf("%s outcome for first candidate = %d, want 1", outcomeOf(code), got)
			}
		})
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

// TestProxyProbeReportsBackendOccupancy: a 200 probe whose body carries the
// backend's own limiter n_avg leaves routing as it was: the load is what
// this proxy has in flight there.
func TestProxyProbeReportsBackendOccupancy(t *testing.T) {
	p, stubs := newStubCluster(t, 2, nil)
	before, _ := p.candidates("", false)
	head := stubByName(stubs, before[0].Name)
	head.navg.Store(7250) // /healthz reports limiter_navg 7.25
	p.ProbeAll(t.Context())

	after, _ := p.candidates("", false)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("candidate %d after the probe = %s, before = %s: a reported n_avg moved routing",
				i, after[i].Name, before[i].Name)
		}
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
