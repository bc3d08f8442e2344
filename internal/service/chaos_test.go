package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"littleslaw/internal/client"
	"littleslaw/internal/faults"
	"littleslaw/internal/stream"
)

// The chaos end-to-end suite: llserved under injected faults at every
// layer, driven past capacity by resilient clients. The claims under test
// are the tentpole's acceptance criteria — graceful degradation (every
// fault becomes a clean retryable response, never a hang or a leak),
// eventual success for a client that keeps retrying, and the injection
// layer itself being a provable no-op when disabled.

// chaosSpec arms roughly a 30% per-request handler fault rate (12% injected
// latency + 12% transient error + 6% panic) plus deeper faults in the
// admission path, the sim-cache runner, and the engine pool. The seed is
// fixed so a failure replays exactly.
const chaosSpec = "seed=42" +
	";handler.*=latency:0.12:30ms" +
	";handler.*=error:0.12" +
	";handler.*=panic:0.06" +
	";limit.acquire=latency:0.08:5ms" +
	";runner.run=error:0.15" +
	";engine.job=panic:0.10"

// armGlobalFaults configures the process-global injector (the one the
// runner, engine, limiter and stream sites consult) and disarms it again
// at cleanup so the rest of the package runs fault-free.
func armGlobalFaults(t *testing.T, spec string) {
	t.Helper()
	if err := faults.Global().ConfigureSpec(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := faults.Global().Configure(1, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// metricValue extracts one gauge/counter value from a /metrics text dump.
func metricValue(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics", name)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("metric %s = %q: %v", name, m[1], err)
	}
	return v
}

// TestChaosEventualSuccess is the headline chaos run: the full fault spec
// armed, a small admission ceiling, and 2× the server's concurrency
// offered by closed-loop clients. Every logical request must eventually
// succeed (each fault mode degrades to a retryable response: injected
// errors → 503 + Retry-After, panics → 500 with the limiter slot released,
// latency → a slow success, sheds → 429), the limiter must end with zero
// in-flight slots, and no goroutines may leak.
func TestChaosEventualSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	armGlobalFaults(t, chaosSpec)

	before := runtime.NumGoroutine()
	stub := &profileStub{}
	const ceiling = 4
	s := New(Config{
		ProfileFor:        stub.fn,
		LimitCeiling:      ceiling,
		LimitQueueTimeout: 200 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())

	// 2× capacity: twice the ceiling in always-on closed-loop workers.
	const workers = 2 * ceiling
	const perWorker = 12
	type req struct{ method, path, body string }
	reqs := []req{
		{http.MethodGet, "/v1/platforms", ""},
		{http.MethodPost, "/v1/analyze", `{"platform":"SKL","measurement":{"bandwidth_gbs":106.9,"random_access":true}}`},
		{http.MethodPost, "/v1/analyze", `{"platform":"SKL","workload":"ISx","scale":0.02}`},
		{http.MethodPost, "/v1/advise", `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`},
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.New(client.Config{
				BaseURL:     ts.URL,
				Timeout:     10 * time.Second,
				MaxAttempts: 4,
				Backoff:     5 * time.Millisecond,
				MaxBackoff:  200 * time.Millisecond,
				// The chaos clients retry without a budget: the run's claim
				// is 100% *eventual* success, so convergence must not be
				// rationed. MaxRetryAfter trims the limiter's whole-second
				// hints to keep the run short.
				BudgetRatio:   -1,
				MaxRetryAfter: 300 * time.Millisecond,
				Seed:          int64(w + 1),
			})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perWorker; i++ {
				rq := reqs[(w+i)%len(reqs)]
				ok := false
				for attempt := 0; attempt < 40 && !ok; attempt++ {
					res, err := cl.Do(context.Background(), rq.method, rq.path, "application/json", []byte(rq.body))
					if err != nil {
						errs <- fmt.Errorf("worker %d %s: transport: %w", w, rq.path, err)
						return
					}
					switch {
					case res.Status >= 200 && res.Status < 300:
						ok = true
					case res.Status == 429 || res.Status == 500 || res.Status == 503:
						// Degraded but clean: retry. (The client already
						// retried within its attempt budget.)
					default:
						errs <- fmt.Errorf("worker %d %s: unexpected status %d: %s", w, rq.path, res.Status, res.Body)
						return
					}
				}
				if !ok {
					errs <- fmt.Errorf("worker %d %s: no success after 40 rounds", w, rq.path)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The run must actually have injected faults — otherwise this test
	// proves nothing about degradation.
	_, metricsBody := get(t, ts, "/metrics")
	if fired := metricValue(t, metricsBody, "llserved_faults_injected_total"); fired == 0 {
		t.Fatal("chaos run fired zero faults; the spec or the sites are dead")
	}
	// Every limiter slot must be home: panics, sheds and injected errors
	// all released theirs.
	if inflight := metricValue(t, metricsBody, "llserved_limiter_inflight"); inflight != 0 {
		t.Fatalf("llserved_limiter_inflight = %g after the run, want 0 (leaked slots)", inflight)
	}
	if qd := metricValue(t, metricsBody, "llserved_limiter_queue_depth"); qd != 0 {
		t.Fatalf("llserved_limiter_queue_depth = %g after the run, want 0", qd)
	}

	// Goroutine accounting: after the server closes, the count settles back
	// to (about) where it started. The poll forgives scheduler lag; the
	// bound forgives the runtime's own background workers.
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after settling — leak.\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosStreamTerminalError: a monitor killed mid-stream by an injected
// fault must hand every subscriber a terminal "error" event before the
// stream closes — the graceful alternative to a silently truncated tail.
func TestChaosStreamTerminalError(t *testing.T) {
	// stream.monitor faults with P=1: the first sample kills the monitor.
	armGlobalFaults(t, "seed=7;stream.monitor=error:1")
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn})

	samples := `{"platform":"SKL","stream":"doomed","samples":[` +
		`{"t_s":0,"bandwidth_gbs":50},{"t_s":1,"bandwidth_gbs":60},{"t_s":2,"bandwidth_gbs":70},` +
		`{"t_s":3,"bandwidth_gbs":80},{"t_s":4,"bandwidth_gbs":90},{"t_s":5,"bandwidth_gbs":95},` +
		`{"t_s":6,"bandwidth_gbs":97},{"t_s":7,"bandwidth_gbs":99}]}`
	resp, err := http.Post(ts.URL+"/v1/watch", "application/json", bytes.NewReader([]byte(samples)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	var sawError bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev stream.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Bytes(), err)
		}
		if ev.Kind == "error" {
			if ev.Error == nil || ev.Error.Message == "" {
				t.Fatalf("error event without a message: %+v", ev)
			}
			if !faultsMentioned(ev.Error.Message) {
				t.Fatalf("terminal error %q does not identify the injected fault", ev.Error.Message)
			}
			sawError = true
		}
		if ev.Kind == "summary" {
			t.Fatal("stream reached a summary despite a guaranteed monitor fault")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawError {
		t.Fatal("stream closed without a terminal error event")
	}
}

func faultsMentioned(msg string) bool {
	return bytes.Contains([]byte(msg), []byte("injected"))
}

// TestFaultsDisabledIsNoOp is the acceptance criterion stated as a test:
// a server carrying a full fault configuration with the injector switched
// off must produce bit-identical responses to a server that has no fault
// configuration at all, over a representative request sequence.
func TestFaultsDisabledIsNoOp(t *testing.T) {
	seed, rules, err := faults.ParseSpec(chaosSpec + ";stream.serve=drip:0.2:10ms")
	if err != nil {
		t.Fatal(err)
	}
	armed, err := faults.New(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	armed.SetEnabled(false)
	clean, err := faults.New(1)
	if err != nil {
		t.Fatal(err)
	}

	sequence := func(inj *faults.Injector) [][]byte {
		stub := &profileStub{}
		_, ts := newTestServer(t, Config{ProfileFor: stub.fn, FaultInjector: inj})
		var bodies [][]byte
		run := func(body []byte) { bodies = append(bodies, body) }
		_, b := get(t, ts, "/v1/platforms")
		run(b)
		_, b = post(t, ts, "/v1/analyze", `{"platform":"SKL","measurement":{"bandwidth_gbs":106.9,"random_access":true}}`)
		run(b)
		_, b = post(t, ts, "/v1/analyze", `{"platform":"KNL","workload":"ISx","scale":0.02}`)
		run(b)
		_, b = post(t, ts, "/v1/advise", `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`)
		run(b)
		_, b = get(t, ts, "/v1/tables/IV?scale=0.02")
		run(b)
		_, b = post(t, ts, "/v1/analyze", "not json")
		run(b)
		return bodies
	}

	a, b := sequence(armed), sequence(clean)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d: disabled-faults response differs from no-faults response:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
	// And switching off really meant *off*: zero evaluations drew from any
	// site RNG (Counts tracks evals; a disabled injector records none).
	if got := armed.FiredTotal(); got != 0 {
		t.Fatalf("disabled injector fired %d faults", got)
	}
	for _, sc := range armed.Counts() {
		if sc.Evals != 0 {
			t.Fatalf("disabled injector evaluated site %s %d times", sc.Site, sc.Evals)
		}
	}
}

// TestHandlerPanicReleasesLimiterSlot is the slot-leak regression test at
// the service layer: with a ceiling of 1, a panicking handler that leaked
// its slot would wedge the server shut — every later request would queue
// and shed forever. Alternating guaranteed panics with clean requests
// proves release-on-panic.
func TestHandlerPanicReleasesLimiterSlot(t *testing.T) {
	inj, err := faults.New(9, faults.Rule{Site: "handler.platforms", Kind: faults.KindPanic, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{
		ProfileFor:    stub.fn,
		FaultInjector: inj,
		LimitCeiling:  1,
		LimitQueue:    -1, // no queue: a leaked slot turns into an instant 429
	})

	for i := 0; i < 5; i++ {
		resp, body := get(t, ts, "/v1/platforms")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("round %d: panicking handler returned %d (%s), want 500", i, resp.StatusCode, body)
		}
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
			t.Fatalf("round %d: 500 body is not the JSON error envelope: %s", i, body)
		}
		// The clean route proves the slot came back: under a leaked slot
		// this request would be shed with 429, not served.
		resp, body = post(t, ts, "/v1/analyze", `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: request after panic returned %d (%s), want 200", i, resp.StatusCode, body)
		}
	}
}

// TestFaultsAdminEndpoint drives the runtime control surface: POST a spec,
// read it back, observe injections, flip the kill switch, reconfigure to
// empty.
func TestFaultsAdminEndpoint(t *testing.T) {
	inj, err := faults.New(1)
	if err != nil {
		t.Fatal(err)
	}
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn, FaultInjector: inj})

	// Initially quiet.
	_, body := get(t, ts, "/v1/faults")
	var fr FaultsResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Enabled {
		t.Fatalf("fresh injector reports enabled: %s", body)
	}

	// Arm a total-failure rule for one handler.
	resp, body := post(t, ts, "/v1/faults", `{"spec":"seed=5;handler.platforms=error:1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("arm: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Enabled || fr.Seed != 5 || len(fr.Rules) != 1 {
		t.Fatalf("armed state = %s", body)
	}
	if resp, _ := get(t, ts, "/v1/platforms"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("armed error rule: /v1/platforms = %d, want 503", resp.StatusCode)
	}

	// Kill switch off: same rules, no injection.
	if resp, body := post(t, ts, "/v1/faults", `{"enabled":false}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("disable: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts, "/v1/platforms"); resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled injector still injecting: %d", resp.StatusCode)
	}

	// Validation: both or neither field is a 400; a bad spec is a 400.
	if resp, _ := post(t, ts, "/v1/faults", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/faults", `{"spec":"seed=1","enabled":true}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("both fields = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/faults", `{"spec":"handler.x=explode:1"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad kind = %d, want 400", resp.StatusCode)
	}

	// The admin endpoint must answer even while the limiter sheds: it is
	// registered outside admission control.
	quiet, err := faults.New(2)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{ProfileFor: stub.fn, LimitCeiling: 1, LimitQueue: -1, FaultInjector: quiet})
	resp, _ = get(t, ts2, "/v1/faults")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faults endpoint behind admission control? status = %d", resp.StatusCode)
	}
}
