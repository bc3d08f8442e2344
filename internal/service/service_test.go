package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/experiments"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
)

// paperProfileCtx adapts the published anchor curves to the service's
// context-aware profile hook, counting invocations.
type profileStub struct {
	calls atomic.Int64
}

func (ps *profileStub) fn(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
	ps.calls.Add(1)
	return experiments.PaperProfileFor(p)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// waitUntil polls for a condition the test cannot hook (a disconnect
// reaching the server, a handler parking) with a deadline.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestHealthzReadinessBody pins the JSON readiness contract cluster probes
// rely on: status, live limiter occupancy, stream accounting and version —
// while the plain 200-with-"ok" liveness contract above keeps holding.
func TestHealthzReadinessBody(t *testing.T) {
	_, ts := newTestServer(t, Config{LimitCeiling: 8})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.Version == "" {
		t.Error("version missing")
	}
	if h.LimiterNAvg == nil || *h.LimiterNAvg < 0 {
		t.Errorf("limiter_navg = %v, want present and non-negative", h.LimiterNAvg)
	}
	if h.LimiterCeiling == nil || *h.LimiterCeiling != 8 {
		t.Errorf("limiter_ceiling = %v, want 8", h.LimiterCeiling)
	}
	if h.ActiveStreams != 0 || h.StreamClients != 0 {
		t.Errorf("stream accounting = %d/%d, want 0/0", h.ActiveStreams, h.StreamClients)
	}

	// Admission control disabled: the limiter fields disappear, status
	// stays ok.
	_, ts2 := newTestServer(t, Config{LimitCeiling: -1})
	_, body2 := get(t, ts2, "/healthz")
	var h2 HealthzResponse
	if err := json.Unmarshal(body2, &h2); err != nil {
		t.Fatalf("healthz body is not JSON: %v\n%s", err, body2)
	}
	if h2.LimiterNAvg != nil || h2.LimiterCeiling != nil {
		t.Errorf("limiter fields present with admission disabled: %s", body2)
	}
}

func TestPlatforms(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/v1/platforms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out []PlatformJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Name != "SKL" || out[1].Name != "KNL" || out[2].Name != "A64FX" {
		t.Fatalf("platforms = %+v", out)
	}
	if out[0].L1MSHRs <= 0 || out[0].PeakGBs <= 0 {
		t.Fatalf("platform fields not populated: %+v", out[0])
	}
}

func TestAnalyzeFromMeasurement(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn})
	// ISx-like SKL numbers: 106.9 GB/s random-access on 24 cores.
	resp, body := post(t, ts, "/v1/analyze", `{
		"platform": "SKL",
		"measurement": {"bandwidth_gbs": 106.9, "random_access": true, "routine": "count_local_keys"}
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Report.Platform != "SKL" || out.Report.Routine != "count_local_keys" {
		t.Fatalf("report = %+v", out.Report)
	}
	if out.Report.Occupancy <= 0 || out.Report.LatencyNs <= 0 {
		t.Fatalf("metric not computed: %+v", out.Report)
	}
	if out.Report.Limiter != "L1" {
		t.Fatalf("random access should bind on L1, got %q", out.Report.Limiter)
	}
	if out.Run != nil {
		t.Fatal("measurement-mode analyze should not include a run")
	}
	if out.Explanation == "" {
		t.Fatal("missing explanation")
	}
}

func TestAnalyzeRunsWorkload(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn})
	resp, body := post(t, ts, "/v1/analyze", `{
		"platform": "SKL", "workload": "ISx", "scale": 0.02
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out AnalyzeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Run == nil || out.Run.TotalGBs <= 0 || out.Run.Cores <= 0 {
		t.Fatalf("run missing or empty: %+v", out.Run)
	}
	if out.Report.Occupancy <= 0 {
		t.Fatalf("report = %+v", out.Report)
	}
}

func TestAdvise(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn})
	resp, body := post(t, ts, "/v1/advise", `{
		"platform": "KNL", "workload": "ISx", "scale": 0.02
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out AdviseResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Advice) == 0 {
		t.Fatal("no advice returned")
	}
	stances := map[string]bool{"recommend": true, "neutral": true, "discourage": true}
	for _, a := range out.Advice {
		if a.Optimization == "" || !stances[a.Stance] {
			t.Fatalf("malformed advice %+v", a)
		}
	}
}

func TestBadRequests(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn})
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"malformed JSON", "/v1/analyze", `{"platform":`, http.StatusBadRequest},
		{"unknown field", "/v1/analyze", `{"platform": "SKL", "wat": 1}`, http.StatusBadRequest},
		{"missing platform", "/v1/analyze", `{"workload": "ISx"}`, http.StatusBadRequest},
		{"workload and measurement", "/v1/analyze",
			`{"platform": "SKL", "workload": "ISx", "measurement": {"bandwidth_gbs": 1}}`, http.StatusBadRequest},
		{"neither workload nor measurement", "/v1/analyze", `{"platform": "SKL"}`, http.StatusBadRequest},
		{"negative bandwidth", "/v1/analyze",
			`{"platform": "SKL", "measurement": {"bandwidth_gbs": -3}}`, http.StatusBadRequest},
		{"huge scale", "/v1/analyze",
			`{"platform": "SKL", "workload": "ISx", "scale": 100}`, http.StatusBadRequest},
		{"unknown platform", "/v1/analyze",
			`{"platform": "EPYC", "workload": "ISx"}`, http.StatusNotFound},
		{"unknown workload", "/v1/analyze",
			`{"platform": "SKL", "workload": "LINPACK"}`, http.StatusNotFound},
		{"too many threads", "/v1/analyze",
			`{"platform": "SKL", "workload": "ISx", "threads_per_core": 8}`, http.StatusBadRequest},
		{"characterize unknown platform", "/v1/characterize", `{"platform": "EPYC"}`, http.StatusNotFound},
		{"tune unknown workload", "/v1/tune", `{"platform": "SKL", "workload": "nope"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing: %s", body)
			}
		})
	}
}

func TestCharacterizeCacheHit(t *testing.T) {
	stub := &profileStub{}
	s, ts := newTestServer(t, Config{ProfileFor: stub.fn})

	resp, body := post(t, ts, "/v1/characterize", `{"platform": "KNL"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var first CharacterizeResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || len(first.Points) == 0 {
		t.Fatalf("first characterize = cached=%v points=%d", first.Cached, len(first.Points))
	}

	_, body = post(t, ts, "/v1/characterize", `{"platform": "KNL"}`)
	var second CharacterizeResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical characterize was not a cache hit")
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("profile source ran %d times, want 1", got)
	}

	// The hit/miss counters saw one of each.
	if got := s.cacheEvents.With("profile", "hit").Value(); got < 1 {
		t.Fatalf("profile cache hits = %d, want >= 1", got)
	}
	if got := s.cacheEvents.With("profile", "miss").Value(); got != 1 {
		t.Fatalf("profile cache misses = %d, want 1", got)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	block := func(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ts := newTestServer(t, Config{ProfileFor: block})
	resp, body := post(t, ts, "/v1/characterize?timeout=50ms", `{"platform": "SKL"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("error envelope missing: %s", body)
	}
}

func TestDefaultTimeoutApplies(t *testing.T) {
	block := func(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ts := newTestServer(t, Config{ProfileFor: block, DefaultTimeout: 50 * time.Millisecond})
	resp, _ := post(t, ts, "/v1/characterize", `{"platform": "SKL"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
}

func TestInvalidTimeoutRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := post(t, ts, "/v1/characterize?timeout=yesterday", `{"platform": "SKL"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestTableEndpoint regenerates a real (tiny) ISx table through the full
// pipeline.
func TestTableEndpoint(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn, Platforms: []string{"SKL"}})

	out := getTable(t, ts, "/v1/tables/T4?scale=0.02")
	if out.ID != "IV" || out.Workload != "ISx" {
		t.Fatalf("table = id=%s workload=%s", out.ID, out.Workload)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("SKL ISx ladder has 2 rows, got %d", len(out.Rows))
	}
	for _, row := range out.Rows {
		if row.Platform != "SKL" || row.BWGBs <= 0 || row.Occupancy <= 0 {
			t.Fatalf("row = %+v", row)
		}
	}

	// Unknown id and malformed scale.
	if resp, _ := get(t, ts, "/v1/tables/XL"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table id: status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/tables/IV?scale=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad scale: status = %d, want 400", resp.StatusCode)
	}
}

// getTable GETs one table and decodes it, failing the test on a non-200.
func getTable(t *testing.T, ts *httptest.Server, path string) TableResponse {
	t.Helper()
	resp, body := get(t, ts, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status = %d: %s", path, resp.StatusCode, body)
	}
	var out TableResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTableServedFromRunner: a table simulates on its server's runner and
// is rendered from that runner's results on every request, so a repeat
// returns the same rows and simulates nothing.
func TestTableServedFromRunner(t *testing.T) {
	sims := runner.New(64)
	_, ts := newTestServer(t, Config{ProfileFor: (&profileStub{}).fn, Platforms: []string{"SKL"}, SimRunner: sims})
	first := getTable(t, ts, "/v1/tables/IV?scale=0.02")
	misses := sims.Stats().Misses
	if misses != 3 {
		t.Fatalf("Table IV/SKL ran %d simulations on the server's runner, want 3 distinct configs", misses)
	}
	second := getTable(t, ts, "/v1/tables/IV?scale=0.02")
	if got := sims.Stats().Misses - misses; got != 0 {
		t.Fatalf("repeat table request ran %d simulations, want 0", got)
	}
	if len(first.Rows) == 0 || !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("repeat table rows differ:\n  %+v\n  %+v", first.Rows, second.Rows)
	}
}

// TestAnalyzeAndTablesShareOneRunner: inside one llserved, /v1/tables and
// /v1/analyze run on one runner, so analyzing a configuration a table has
// already run is a hit on the server's runner and simulates nothing.
func TestAnalyzeAndTablesShareOneRunner(t *testing.T) {
	for _, tc := range []struct {
		name string
		sims *runner.Runner
	}{
		{"nil SimRunner", nil},
		{"own SimRunner", runner.New(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{ProfileFor: (&profileStub{}).fn, Platforms: []string{"SKL"}, SimRunner: tc.sims})
			getTable(t, ts, "/v1/tables/IV?scale=0.01")
			before := s.cfg.SimRunner.Stats()
			// Table IV's first SKL row: ISx, base variant, one thread.
			if resp, body := post(t, ts, "/v1/analyze", `{"platform":"SKL","workload":"ISx","scale":0.01}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze = %d: %s", resp.StatusCode, body)
			}
			after := s.cfg.SimRunner.Stats()
			if after.Misses != before.Misses || after.Hits <= before.Hits {
				t.Fatalf("analyze after the table: misses %d → %d, hits %d → %d; want a hit and no miss",
					before.Misses, after.Misses, before.Hits, after.Hits)
			}
		})
	}
}

// TestTableHonoursRunnerTTL: no rendered table outlives the runner results
// it was built from, so with every result expired a repeat simulates again.
func TestTableHonoursRunnerTTL(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ProfileFor: (&profileStub{}).fn, Platforms: []string{"SKL"}, RunnerTTL: time.Nanosecond,
	})
	getTable(t, ts, "/v1/tables/IV?scale=0.02")
	misses := s.cfg.SimRunner.Stats().Misses
	getTable(t, ts, "/v1/tables/IV?scale=0.02")
	if got := s.cfg.SimRunner.Stats().Misses - misses; got == 0 {
		t.Fatal("repeat table request with every runner result expired ran no simulation")
	}
}

// TestWarmCharacterizesAheadOfTraffic: Warm (llserved -warm) characterizes
// a platform once, ahead of traffic, so the first analysis on it pays for
// no characterization of its own.
func TestWarmCharacterizesAheadOfTraffic(t *testing.T) {
	stub := &profileStub{}
	s, ts := newTestServer(t, Config{ProfileFor: stub.fn})
	ctx := context.Background()
	if hit, err := s.Warm(ctx, "KNL"); err != nil || hit {
		t.Fatalf("first Warm(KNL) = (cached %v, %v), want a fresh characterization", hit, err)
	}
	if hit, err := s.Warm(ctx, "KNL"); err != nil || !hit {
		t.Fatalf("second Warm(KNL) = (cached %v, %v), want the cached profile", hit, err)
	}
	if resp, body := post(t, ts, "/v1/analyze", `{"platform":"KNL","measurement":{"bandwidth_gbs":216,"random_access":true}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, body)
	}
	if n := stub.calls.Load(); n != 1 {
		t.Fatalf("profile source ran %d times, want 1 (the warm-up)", n)
	}
	if _, err := s.Warm(ctx, "P4"); err == nil {
		t.Fatal("Warm accepted an unknown platform")
	}
}

func TestMetricsEndpointAdvances(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn})
	post(t, ts, "/v1/analyze", `{"platform": "SKL", "measurement": {"bandwidth_gbs": 50}}`)
	post(t, ts, "/v1/analyze", `{"platform": "SKL", "measurement": {"bandwidth_gbs": 50}}`)
	post(t, ts, "/v1/analyze", `{"platform":`) // 400

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		`llserved_requests_total{handler="analyze",code="200"} 2`,
		`llserved_requests_total{handler="analyze",code="400"} 1`,
		`llserved_request_seconds_count{handler="analyze"} 3`,
		`llserved_inflight_requests 0`,
		`llserved_littles_law_concurrency`,
		`llserved_cache_events_total{cache="profile",event="hit"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

// TestConcurrentLoad hammers /v1/analyze and /v1/tables/T4 from many
// goroutines — the acceptance bar for race-cleanliness (run under -race).
// One request first warms the table's simulations in the runner, so the
// test exercises handler, cache and metrics concurrency rather than
// simulation wall-time.
func TestConcurrentLoad(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn, Platforms: []string{"SKL"}})
	const tablePath = "/v1/tables/T4?scale=0.02"
	rows := len(getTable(t, ts, tablePath).Rows)

	const clients = 8
	const perClient = 10
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				switch (c + i) % 3 {
				case 0:
					resp, err := http.Get(ts.URL + tablePath)
					if err != nil {
						errs <- err.Error()
						continue
					}
					var out TableResponse
					json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || out.ID != "IV" || len(out.Rows) != rows {
						errs <- fmt.Sprintf("tables: %d %+v", resp.StatusCode, out)
					}
				case 1:
					resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
						strings.NewReader(`{"platform": "SKL", "measurement": {"bandwidth_gbs": 80, "random_access": true}}`))
					if err != nil {
						errs <- err.Error()
						continue
					}
					var out AnalyzeResponse
					json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || out.Report.Occupancy <= 0 {
						errs <- fmt.Sprintf("analyze: %d %+v", resp.StatusCode, out.Report)
					}
				case 2:
					resp, err := http.Post(ts.URL+"/v1/characterize", "application/json",
						strings.NewReader(`{"platform": "SKL"}`))
					if err != nil {
						errs <- err.Error()
						continue
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("characterize: %d", resp.StatusCode)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Errorf("profile source ran %d times under concurrent load, want 1 (singleflight)", got)
	}
}
