package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/stream"
)

// brownoutTestConfig is a server with admission control on (the brownout
// controller requires a limiter for its pressure signal) and instant
// paper-anchor profiles.
func brownoutTestConfig(ps *profileStub) Config {
	return Config{LimitCeiling: 8, ProfileFor: ps.fn}
}

// pin pins a brownout mode over the API.
func pin(t *testing.T, ts *httptest.Server, mode string) {
	t.Helper()
	resp, body := post(t, ts, "/v1/brownout", fmt.Sprintf(`{"pin":%q}`, mode))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin %s = %d %s", mode, resp.StatusCode, body)
	}
}

// unpin releases a pinned mode over the API.
func unpin(t *testing.T, ts *httptest.Server) {
	t.Helper()
	if resp, body := post(t, ts, "/v1/brownout", `{"unpin":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("unpin = %d %s", resp.StatusCode, body)
	}
}

// TestBrownoutEndpoint pins the /v1/brownout contract: state readable,
// pin/unpin round-trips, validation errors, 404 when disabled.
func TestBrownoutEndpoint(t *testing.T) {
	ps := &profileStub{}
	_, ts := newTestServer(t, brownoutTestConfig(ps))

	resp, body := get(t, ts, "/v1/brownout")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/brownout = %d %s", resp.StatusCode, body)
	}
	var st BrownoutState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("state not JSON: %v\n%s", err, body)
	}
	if st.Mode != "B0" || st.Pinned {
		t.Fatalf("fresh state = %+v, want B0 unpinned", st)
	}
	if len(st.Enter) != brownout.NumModes-1 || len(st.Exit) != brownout.NumModes-1 {
		t.Fatalf("thresholds = %v / %v, want %d each", st.Enter, st.Exit, brownout.NumModes-1)
	}

	// Pin by label, read back by rung name.
	resp, body = post(t, ts, "/v1/brownout", `{"pin":"analytic"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin analytic = %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "B2" || !st.Pinned {
		t.Fatalf("pinned state = %+v, want B2 pinned", st)
	}

	resp, body = post(t, ts, "/v1/brownout", `{"unpin":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpin = %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Pinned {
		t.Fatalf("state still pinned after unpin: %+v", st)
	}

	for _, bad := range []string{
		`{}`,                        // neither
		`{"pin":"B2","unpin":true}`, // both
		`{"pin":"B9"}`,              // unknown mode
		`{"pin":"B2","x":1}`,        // unknown field
	} {
		if resp, _ := post(t, ts, "/v1/brownout", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", bad, resp.StatusCode)
		}
	}

	// Disabled controller: 404 on both verbs.
	_, tsOff := newTestServer(t, Config{LimitCeiling: 8, DisableBrownout: true, ProfileFor: ps.fn})
	if resp, _ := get(t, tsOff, "/v1/brownout"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET with brownout disabled = %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(t, tsOff, "/v1/brownout", `{"unpin":true}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST with brownout disabled = %d, want 404", resp.StatusCode)
	}
}

// TestBrownoutLadderBehaviors pins what each rung does to the route
// surface: B2 answers analyze/advise from the analytic model with honest
// markers, B3 sheds non-critical routes while analyze stays alive, B4
// sheds the analysis surface too while the admin plane keeps answering.
func TestBrownoutLadderBehaviors(t *testing.T) {
	ps := &profileStub{}
	srv, ts := newTestServer(t, brownoutTestConfig(ps))
	analyzeBody := `{"platform":"SKL","workload":"ISx","scale":0.02}`

	// B0: a full-fidelity answer, no degradation markers anywhere.
	resp, body := post(t, ts, "/v1/analyze", analyzeBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B0 analyze = %d %s", resp.StatusCode, body)
	}
	var full AnalyzeResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.Approximate || full.Stale || full.Run == nil {
		t.Fatalf("B0 answer degraded or missing run: %+v", full)
	}
	if resp.Header.Get("X-Degraded") != "" || resp.Header.Get("X-Brownout-Mode") != "" {
		t.Fatalf("B0 response carries degradation headers: %v", resp.Header)
	}

	// B2: analytic fallback, marked Approximate, no kernel run.
	pin(t, ts, "B2")
	resp, body = post(t, ts, "/v1/analyze", analyzeBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B2 analyze = %d %s", resp.StatusCode, body)
	}
	var approx AnalyzeResponse
	if err := json.Unmarshal(body, &approx); err != nil {
		t.Fatal(err)
	}
	if !approx.Degraded || !approx.Approximate || approx.Stale || approx.BrownoutMode != "B2" {
		t.Fatalf("B2 markers = %+v, want degraded approximate B2", approx)
	}
	if approx.Run != nil {
		t.Fatalf("B2 answer carries a kernel run: %+v", approx.Run)
	}
	if resp.Header.Get("X-Degraded") != "true" || resp.Header.Get("X-Brownout-Mode") != "B2" {
		t.Fatalf("B2 headers = %v", resp.Header)
	}
	// Advise degrades the same way.
	resp, body = post(t, ts, "/v1/advise", analyzeBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B2 advise = %d %s", resp.StatusCode, body)
	}
	var adv AdviseResponse
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatal(err)
	}
	if !adv.Degraded || !adv.Approximate || adv.BrownoutMode != "B2" || len(adv.Advice) == 0 {
		t.Fatalf("B2 advise = %+v, want degraded approximate with advice", adv)
	}
	// Measurement-path analyses have no kernel to skip: never degraded.
	resp, body = post(t, ts, "/v1/analyze", `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B2 measurement analyze = %d %s", resp.StatusCode, body)
	}
	var meas AnalyzeResponse
	if err := json.Unmarshal(body, &meas); err != nil {
		t.Fatal(err)
	}
	if meas.Degraded || meas.Approximate {
		t.Fatalf("measurement answer marked degraded: %+v", meas)
	}

	// B3: non-critical routes shed with 503 + Retry-After and the mode
	// header; the critical analysis surface stays alive.
	pin(t, ts, "B3")
	for _, path := range []string{"/v1/tables/IV", "/v1/traces?max=1"} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("B3 GET %s = %d %s, want 503", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-Brownout-Mode") != "B3" {
			t.Errorf("B3 GET %s headers = %v", path, resp.Header)
		}
	}
	if resp, body := post(t, ts, "/v1/watch", `{"platform":"SKL"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("B3 watch = %d %s, want 503", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts, "/v1/analyze", analyzeBody); resp.StatusCode != http.StatusOK {
		t.Errorf("B3 analyze = %d, want 200", resp.StatusCode)
	}

	// B4: everything outside the admin plane sheds; diagnostics survive.
	pin(t, ts, "B4")
	if resp, _ := post(t, ts, "/v1/analyze", analyzeBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("B4 analyze = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/platforms"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("B4 platforms = %d, want 503", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/metrics", "/v1/brownout", "/v1/faults"} {
		if resp, body := get(t, ts, path); resp.StatusCode != http.StatusOK {
			t.Errorf("B4 GET %s = %d %s, want 200 (admin never sheds)", path, resp.StatusCode, body)
		}
	}
	// healthz names the rung so fleet probes can route around it.
	_, body = get(t, ts, "/healthz")
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.BrownoutMode != "B4" {
		t.Errorf("healthz brownout_mode = %q, want B4", h.BrownoutMode)
	}

	// Metrics expose the ladder.
	_, metricsBody := get(t, ts, "/metrics")
	for _, want := range []string{"llserved_brownout_mode 4", "llserved_brownout_transitions_total"} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if srv.InFlight() != 0 {
		t.Errorf("InFlight = %d after all requests completed", srv.InFlight())
	}
}

// TestBrownoutStaleServing pins B1: an expired cache entry serves as a
// marked-stale answer instead of recomputing; a cache miss still runs the
// kernel and is not marked.
func TestBrownoutStaleServing(t *testing.T) {
	ps := &profileStub{}
	cfg := brownoutTestConfig(ps)
	// Everything expires immediately: any revisit under B1 is a stale serve.
	cfg.RunnerTTL = time.Nanosecond
	_, ts := newTestServer(t, cfg)
	analyzeBody := `{"platform":"SKL","workload":"ISx","scale":0.02}`

	// Populate the cache with a full run.
	resp, body := post(t, ts, "/v1/analyze", analyzeBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming analyze = %d %s", resp.StatusCode, body)
	}

	pin(t, ts, "B1")
	resp, body = post(t, ts, "/v1/analyze", analyzeBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B1 analyze = %d %s", resp.StatusCode, body)
	}
	var stale AnalyzeResponse
	if err := json.Unmarshal(body, &stale); err != nil {
		t.Fatal(err)
	}
	if !stale.Degraded || !stale.Stale || stale.Approximate || stale.BrownoutMode != "B1" {
		t.Fatalf("B1 markers = %+v, want degraded stale B1", stale)
	}
	if stale.Run == nil {
		t.Fatalf("stale answer lost its kernel run: %+v", stale)
	}
	if resp.Header.Get("X-Degraded") != "true" || resp.Header.Get("X-Brownout-Mode") != "B1" {
		t.Fatalf("B1 headers = %v", resp.Header)
	}

	// A cache miss under B1 still runs the kernel, unmarked: stale serving
	// reuses work, it never invents it.
	resp, body = post(t, ts, "/v1/analyze", `{"platform":"SKL","workload":"ISx","scale":0.021}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B1 miss analyze = %d %s", resp.StatusCode, body)
	}
	var fresh AnalyzeResponse
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Stale || fresh.Approximate {
		t.Fatalf("B1 cache miss marked degraded: %+v", fresh)
	}
}

// TestBrownoutAnalyticGolden cross-checks the B2 analytic fallback against
// the cached simulation answer for the paper platforms: the approximate
// bandwidth must land within the same tolerance band the analytic model's
// own validation uses, and every approximate response must say so.
func TestBrownoutAnalyticGolden(t *testing.T) {
	ps := &profileStub{}
	_, ts := newTestServer(t, brownoutTestConfig(ps))
	for _, platformName := range []string{"SKL", "KNL", "A64FX"} {
		body := fmt.Sprintf(`{"platform":%q,"workload":"ISx","scale":0.02}`, platformName)

		unpin(t, ts)
		resp, raw := post(t, ts, "/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s full analyze = %d %s", platformName, resp.StatusCode, raw)
		}
		var full AnalyzeResponse
		if err := json.Unmarshal(raw, &full); err != nil {
			t.Fatal(err)
		}

		pin(t, ts, "B2")
		resp, raw = post(t, ts, "/v1/analyze", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s analytic analyze = %d %s", platformName, resp.StatusCode, raw)
		}
		var approx AnalyzeResponse
		if err := json.Unmarshal(raw, &approx); err != nil {
			t.Fatal(err)
		}
		if !approx.Approximate || !approx.Degraded {
			t.Fatalf("%s analytic answer unmarked: %+v", platformName, approx)
		}

		simBW, anaBW := full.Report.BandwidthGBs, approx.Report.BandwidthGBs
		if simBW <= 0 || anaBW <= 0 {
			t.Fatalf("%s bandwidths = %.2f sim, %.2f analytic", platformName, simBW, anaBW)
		}
		// Tighter than the analytic model's own curve-validation band
		// (internal/analytic tolerates [0.7, 1.45]): for the paper
		// workloads the fallback tracks the kernel within a few percent,
		// and this pin keeps it that way.
		if ratio := anaBW / simBW; ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s analytic %.2f GB/s vs sim %.2f GB/s (ratio %.2f) outside tolerance",
				platformName, anaBW, simBW, ratio)
		}
	}
}

// TestLadderLeavesB1WhenLoadLeaves: the ladder reads what the limiter holds
// now. The ceiling's worth of requests, held for most of the server's life,
// climbs it to B1; once they complete and DwellDown has passed, one sample
// brings it back to B0, although the limiter's windowed n_avg still
// remembers the load above the 0.7 exit threshold. (The ladder runs on a
// fake clock; the limiter's n_avg on the real one, where a young server
// reads ∫n dt ÷ uptime.)
func TestLadderLeavesB1WhenLoadLeaves(t *testing.T) {
	const ceiling = 2
	var clock atomic.Int64 // the ladder's clock, in ns since the epoch
	bp := newBlockingProfile()
	defer bp.once.Do(func() { close(bp.release) })
	s, ts := newTestServer(t, Config{
		ProfileFor:   bp.fn,
		LimitCeiling: ceiling,
		Brownout:     brownout.Config{Now: func() time.Time { return time.Unix(0, clock.Load()) }},
	})

	var held sync.WaitGroup
	for i := 0; i < ceiling; i++ {
		held.Add(1)
		go func() {
			defer held.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	waitUntil(t, func() bool { return s.limiter.Snapshot().InFlight == ceiling })
	waitUntil(t, func() bool { return s.limiter.Snapshot().NAvg >= 0.98*ceiling })

	clock.Store(int64(600 * time.Millisecond)) // past DwellUp
	if m := s.observeMode(); m != brownout.B1 {
		t.Fatalf("mode = %s with the ceiling's worth in flight, want B1", m)
	}

	bp.once.Do(func() { close(bp.release) })
	held.Wait()
	waitUntil(t, func() bool { return s.limiter.Snapshot().InFlight == 0 })
	clock.Store(int64(600*time.Millisecond + 2100*time.Millisecond)) // past DwellDown
	if m := s.observeMode(); m != brownout.B0 {
		snap := s.limiter.Snapshot()
		t.Fatalf("mode = %s with nothing in flight or queued after DwellDown, want B0 (limiter n_avg %.2f, ceiling %g)",
			m, snap.NAvg, snap.Ceiling)
	}
}

// TestDrainLifecycle walks BeginDrain: healthz flips to draining, new work
// sheds 503 + Retry-After, live ad-hoc streams hear a terminal shutdown
// event, the trace tail ends in a terminal record, and the admin plane
// keeps answering throughout. BeginDrain is idempotent.
func TestDrainLifecycle(t *testing.T) {
	ps := &profileStub{}
	srv, ts := newTestServer(t, brownoutTestConfig(ps))

	// A live ad-hoc stream, registered the way handleWatch registers them.
	br := stream.NewBroker(4)
	defer srv.trackStream(br)()
	sub := br.Subscribe(4)
	defer sub.Close()

	// A live trace tail; collect its records in the background.
	tailReq, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/traces", nil)
	if err != nil {
		t.Fatal(err)
	}
	tailResp, err := http.DefaultClient.Do(tailReq)
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

	// One completed request so the tail has a normal record before the
	// terminal one.
	if resp, body := post(t, ts, "/v1/analyze", `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain analyze = %d %s", resp.StatusCode, body)
	}

	srv.BeginDrain()
	srv.BeginDrain() // idempotent

	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	// healthz: still 200 (the process is alive), status draining.
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d", resp.StatusCode)
	}
	var h HealthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("healthz = %+v, want status draining", h)
	}

	// New work sheds with 503 + Retry-After.
	resp, _ = post(t, ts, "/v1/analyze", `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("draining Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}

	// The tracked stream hears the terminal shutdown event, then closes.
	select {
	case ev, ok := <-sub.Events():
		if !ok || ev.Kind != "shutdown" {
			t.Fatalf("stream event = %+v (ok=%v), want shutdown", ev, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no shutdown event on tracked stream")
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("stream still open after shutdown event")
	}

	// The trace tail ends with the terminal record and a clean EOF.
	select {
	case lines := <-tailDone:
		if len(lines) == 0 {
			t.Fatal("trace tail saw no records")
		}
		var last trace2 // the terminal record
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		if last.Terminal != "shutdown" {
			t.Fatalf("last tail record = %s, want terminal shutdown", lines[len(lines)-1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("trace tail did not close after drain")
	}

	// Admin plane stays alive for the whole drain window.
	if resp, _ := get(t, ts, "/metrics"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining metrics = %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/brownout"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining brownout state = %d", resp.StatusCode)
	}
	if srv.InFlight() != 0 {
		t.Errorf("InFlight = %d, want 0", srv.InFlight())
	}
}

// trace2 decodes just the terminal marker from a tail record.
type trace2 struct {
	Terminal string `json:"terminal"`
}
