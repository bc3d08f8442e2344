package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/stream"
	"littleslaw/internal/stream/streamtest"
)

// twoPhaseBody drains the canonical §III-D replay into an inline-samples
// watch request — the same samples, window and classification the stream
// package's golden test uses.
func twoPhaseBody(t *testing.T, streamName string) string {
	t.Helper()
	src, _, err := stream.Replay(context.Background(),
		streamtest.TwoPhaseReplay(platform.SKL(), 24), stream.ReplayOptions{PeriodS: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := WatchRequest{
		Platform:      "SKL",
		WindowSamples: 8,
		StrideSamples: 8,
		ActiveCores:   8,
		RandomAccess:  true,
		Stream:        streamName,
	}
	for {
		s, err := src.Next(context.Background())
		if err != nil {
			break
		}
		js := WatchSampleJSON{TS: s.TS, BandwidthGBs: s.BandwidthGBs}
		if f := s.PrefetchedReadFraction; f >= 0 {
			js.PrefetchedReadFraction = &f
		}
		req.Samples = append(req.Samples, js)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func streamCurveConfig() Config {
	return Config{
		ProfileFor: func(_ context.Context, _ *platform.Platform) (*queueing.Curve, error) {
			return streamtest.Curve(), nil
		},
	}
}

// TestWatchTwoPhaseNDJSON is the e2e acceptance test: the deterministic
// two-phase replay POSTed through /v1/watch yields at least two phases
// with differing advice, a misleading-aggregate summary — and the exact
// byte stream the stream package's golden fixture locks.
func TestWatchTwoPhaseNDJSON(t *testing.T) {
	_, ts := newTestServer(t, streamCurveConfig())
	resp, body := post(t, ts, "/v1/watch", twoPhaseBody(t, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch = %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q", cc)
	}

	golden, err := os.ReadFile(filepath.Join("..", "stream", "testdata", "two_phase_events.ndjson"))
	if err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	if string(body) != string(golden) {
		t.Fatalf("served stream diverged from the golden fixture\n-- got --\n%s\n-- want --\n%s", body, golden)
	}

	var phases []stream.PhaseEvent
	var summary *stream.SummaryEvent
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var ev stream.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		switch ev.Kind {
		case "phase":
			phases = append(phases, *ev.Phase)
		case "summary":
			summary = ev.Summary
		}
	}
	if len(phases) < 2 {
		t.Fatalf("served %d phases, want >= 2", len(phases))
	}
	if phases[0].Action == phases[len(phases)-1].Action {
		t.Fatalf("phases share action %q", phases[0].Action)
	}
	if summary == nil || !summary.MisleadingAggregate {
		t.Fatalf("summary = %+v, want misleading aggregate", summary)
	}
	for _, a := range summary.PhaseActions {
		if a == summary.Action {
			t.Fatalf("aggregate action %q matches a phase", summary.Action)
		}
	}
}

// sseEvents parses an SSE stream into its data payloads.
func sseEvents(t *testing.T, body string) []stream.Event {
	t.Helper()
	var out []stream.Event
	for _, line := range strings.Split(body, "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev stream.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", data, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestWatchSSEFanout64 runs the named two-phase stream and attaches 64
// concurrent SSE subscribers: every one of them must observe the identical
// event sequence (history replay makes joining order irrelevant), and
// /metrics must expose the per-stream counters.
func TestWatchSSEFanout64(t *testing.T) {
	s, ts := newTestServer(t, streamCurveConfig())
	resp, postBody := post(t, ts, "/v1/watch", twoPhaseBody(t, "twophase"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch = %d %s", resp.StatusCode, postBody)
	}
	events := len(strings.Split(strings.TrimSpace(string(postBody)), "\n"))

	const subs = 64
	bodies := make([]string, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest("GET", ts.URL+"/v1/watch/twophase", nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Accept", "text/event-stream")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.Header.Get("Content-Type") != "text/event-stream" {
				t.Errorf("subscriber %d Content-Type = %q", i, resp.Header.Get("Content-Type"))
			}
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()

	first := sseEvents(t, bodies[0])
	if len(first) != events {
		t.Fatalf("subscriber 0 got %d events, POST streamed %d", len(first), events)
	}
	for i := 1; i < subs; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("subscriber %d diverged from subscriber 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	for i, ev := range first {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	_, metricsBody := get(t, ts, "/metrics")
	for _, want := range []string{
		`llserved_stream_subscribers{stream="twophase"} 0`,
		fmt.Sprintf(`llserved_stream_events_total{stream="twophase"} %d`, events),
		`llserved_stream_dropped_total`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
	_ = s
}

// TestWatchPhasesReplay drives the replay-source path: named workloads
// simulated through the engine pool, then monitored. Two very different
// workloads must register as distinct phases.
func TestWatchPhasesReplay(t *testing.T) {
	_, ts := newTestServer(t, streamCurveConfig())
	body := `{"platform": "SKL", "window_samples": 4, "stride_samples": 4,
		"phases": [
			{"workload": "ISx", "scale": 0.02, "samples": 8},
			{"workload": "DGEMM", "variant": {"tiled": true, "unroll_jam": true}, "scale": 0.02, "samples": 8}
		]}`
	resp, out := post(t, ts, "/v1/watch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch = %d %s", resp.StatusCode, out)
	}
	var summary *stream.SummaryEvent
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var ev stream.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.Kind == "summary" {
			summary = ev.Summary
		}
	}
	if summary == nil || summary.Samples != 16 {
		t.Fatalf("summary = %+v", summary)
	}
	if summary.Phases < 1 {
		t.Fatal("no phases detected")
	}
}

// TestWatchValidation maps the failure modes to clean status codes even
// though the success path streams.
func TestWatchValidation(t *testing.T) {
	_, ts := newTestServer(t, streamCurveConfig())
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both-sources", `{"platform": "SKL", "samples": [{"bandwidth_gbs": 1}], "phases": [{"workload": "ISx"}]}`, http.StatusBadRequest},
		{"bad-platform", `{"platform": "m1", "samples": [{"bandwidth_gbs": 1}]}`, http.StatusNotFound},
		{"bad-workload", `{"platform": "SKL", "phases": [{"workload": "nope"}]}`, http.StatusNotFound},
		{"negative-bandwidth", `{"platform": "SKL", "samples": [{"bandwidth_gbs": -1}]}`, http.StatusBadRequest},
		{"backwards-time", `{"platform": "SKL", "samples": [{"t_s": 2, "bandwidth_gbs": 1}, {"t_s": 1, "bandwidth_gbs": 1}]}`, http.StatusBadRequest},
		{"bad-stream-name", `{"platform": "SKL", "stream": "a b", "samples": [{"bandwidth_gbs": 1}]}`, http.StatusBadRequest},
		{"unknown-field", `{"platform": "SKL", "samples": [{"bandwidth_gbs": 1}], "bogus": 1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, "/v1/watch", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
		})
	}

	if resp, _ := get(t, ts, "/v1/watch/ghost"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream = %d", resp.StatusCode)
	}

	// A named stream can be created once; the second claim conflicts.
	body := `{"platform": "SKL", "stream": "dup", "window_samples": 1, "samples": [{"bandwidth_gbs": 10}]}`
	if resp, out := post(t, ts, "/v1/watch", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first claim = %d %s", resp.StatusCode, out)
	}
	if resp, _ := get(t, ts, "/v1/watch/dup?buffer=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("buffer=0 = %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/watch", body); resp.StatusCode != http.StatusConflict {
		t.Fatalf("second claim = %d, want 409", resp.StatusCode)
	}
	// The finished stream still replays for late subscribers.
	if resp, out := get(t, ts, "/v1/watch/dup"); resp.StatusCode != http.StatusOK || len(out) == 0 {
		t.Fatalf("late subscribe = %d %q", resp.StatusCode, out)
	}
}

// TestStreamCapSheds pins -max-streams: with a cap of one, a held
// subscriber takes the only slot, the next is shed with 429, a Retry-After
// hint and the JSON error envelope, the shed is counted, and the slot comes
// back the moment the holder leaves.
func TestStreamCapSheds(t *testing.T) {
	cfg := streamCurveConfig()
	cfg.MaxStreamClients = 1
	s, ts := newTestServer(t, cfg)
	// A named broker that never closes: a subscriber stays until it leaves.
	if err := s.registerWatch("held", stream.NewBroker(4)); err != nil {
		t.Fatal(err)
	}
	subscribe := func() (*http.Response, context.CancelFunc) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch/held", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		return resp, func() { cancel(); resp.Body.Close() }
	}
	streamClients := func() int {
		t.Helper()
		_, body := get(t, ts, "/healthz")
		var h HealthzResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		return h.StreamClients
	}

	holder, leave := subscribe()
	defer leave()
	if holder.StatusCode != http.StatusOK {
		t.Fatalf("first subscriber = %d, want 200", holder.StatusCode)
	}

	shed, done := subscribe()
	body := readAll(t, shed)
	done()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second subscriber = %d %s, want 429", shed.StatusCode, body)
	}
	if ra, err := strconv.Atoi(shed.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", shed.Header.Get("Retry-After"))
	}
	var e ErrorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
		t.Fatalf("shed body = %q, want the JSON error envelope", body)
	}
	_, metrics := get(t, ts, "/metrics")
	if n := metricValue(t, metrics, "llserved_stream_denied_total"); n != 1 {
		t.Fatalf("llserved_stream_denied_total = %g, want 1", n)
	}
	if n := streamClients(); n != 1 {
		t.Fatalf("stream_clients = %d with one subscriber held, want 1", n)
	}

	leave()
	waitUntil(t, func() bool { return streamClients() == 0 })
	next, leaveNext := subscribe()
	defer leaveNext()
	if next.StatusCode != http.StatusOK {
		t.Fatalf("subscriber after the holder left = %d, want 200", next.StatusCode)
	}
}

// TestHardenedHeaders: nosniff everywhere, no-store on analysis payloads.
func TestHardenedHeaders(t *testing.T) {
	_, ts := newTestServer(t, streamCurveConfig())
	for _, path := range []string{"/healthz", "/metrics", "/v1/platforms"} {
		resp, _ := get(t, ts, path)
		if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
			t.Fatalf("%s X-Content-Type-Options = %q", path, got)
		}
	}
	resp, _ := get(t, ts, "/v1/platforms")
	if got := resp.Header.Get("Cache-Control"); got != "no-store" {
		t.Fatalf("/v1/platforms Cache-Control = %q", got)
	}
}
