package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/trace"
)

// traceAnalyze fires one sim-backed analyze (unique scale per call forces a
// runner cache miss, so every request pays the kernel) and returns its
// X-Trace-Id.
func traceAnalyze(t *testing.T, ts *httptest.Server, i int) string {
	t.Helper()
	body := fmt.Sprintf(`{"platform":"SKL","workload":"ISx","scale":%.8f}`, 0.02+float64(i)*1e-6)
	resp, out := post(t, ts, "/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze %d: status %d: %s", i, resp.StatusCode, out)
	}
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("response missing X-Trace-Id")
	}
	return id
}

// TestTraceWaterfallIdentity is the golden test of the span model: on a
// sim-backed analyze, the spans' queue+service sum must reproduce the
// request's end-to-end W within 5% — exclusive accounting means nested
// stages (handler around runner around sim) don't double count, and the
// untraced residue (JSON envelope, header writes) stays in the noise.
func TestTraceWaterfallIdentity(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn, Workers: 1, SimRunner: runner.New(64), LimitCeiling: 8})

	// A few misses; judge the slowest (largest W ⇒ smallest relative residue).
	var best trace.View
	for i := 0; i < 3; i++ {
		id := traceAnalyze(t, ts, i)
		resp, body := get(t, ts, "/v1/trace/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace fetch: status %d: %s", resp.StatusCode, body)
		}
		var v trace.View
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("trace JSON: %v\n%s", err, body)
		}
		if v.TotalMs > best.TotalMs {
			best = v
		}
	}
	if best.Status != http.StatusOK || best.TotalMs <= 0 || len(best.Spans) == 0 {
		t.Fatalf("trace = %+v", best)
	}
	stages := map[string]bool{}
	for _, sp := range best.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"handler", "runner", "sim", "limit"} {
		if !stages[want] {
			t.Fatalf("stage %q missing from waterfall %+v", want, best.Spans)
		}
	}
	if rel := math.Abs(best.AttributedMs-best.TotalMs) / best.TotalMs; rel > 0.05 {
		t.Fatalf("waterfall identity broken: attributed %.3fms vs total %.3fms (%.1f%% off)",
			best.AttributedMs, best.TotalMs, rel*100)
	}
}

// TestTraceSummaryHeader: every /v1/* response carries the one-line
// waterfall, ending in the request total.
func TestTraceSummaryHeader(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn})
	resp, _ := get(t, ts, "/v1/platforms")
	sum := resp.Header.Get("X-Trace-Summary")
	if !strings.Contains(sum, "total ") || !strings.Contains(sum, "ms") {
		t.Fatalf("X-Trace-Summary = %q, want a waterfall ending in the total", sum)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("missing X-Trace-Id")
	}
}

// TestTraceEndpointsSmoke: the ring serves known ids, 404s unknown ones,
// and the NDJSON tail replays finished traces with increasing sequence
// numbers.
func TestTraceEndpointsSmoke(t *testing.T) {
	stub := &profileStub{}
	_, ts := newTestServer(t, Config{ProfileFor: stub.fn, SimRunner: runner.New(64)})
	for i := 0; i < 3; i++ {
		traceAnalyze(t, ts, i)
	}

	resp, body := get(t, ts, "/v1/trace/nosuchtrace")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d: %s", resp.StatusCode, body)
	}

	resp2, err := http.Get(ts.URL + "/v1/traces?max=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("traces tail: status %d", resp2.StatusCode)
	}
	sc := bufio.NewScanner(resp2.Body)
	lastSeq := -1
	n := 0
	for sc.Scan() {
		var rec trace.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("tail line %d: %v\n%s", n, err, sc.Bytes())
		}
		if rec.Seq <= lastSeq {
			t.Fatalf("seq went backwards: %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		if rec.Trace.ID == "" || rec.Trace.Route == "" {
			t.Fatalf("tail record missing id/route: %+v", rec)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("tail returned %d records, want max=3", n)
	}
}

// TestTraceStageNavgMatchesOccupancyAt is the per-stage Little's-Law
// golden test: the sim stage's n_avg from the trace sink (stage seconds
// per second over its window, which a server this young has not filled)
// must agree with (a) the paper pipeline's OccupancyAt over a flat profile
// at the measured λ and W, and (b) the runner's own occupancy, which
// integrates the identical busy intervals independently.
func TestTraceStageNavgMatchesOccupancyAt(t *testing.T) {
	stub := &profileStub{}
	run := runner.New(64)
	srv, ts := newTestServer(t, Config{ProfileFor: stub.fn, Workers: 1, SimRunner: run})
	for i := 0; i < 6; i++ {
		traceAnalyze(t, ts, i)
	}

	lam, w, navg := srv.traces.StageRates()
	if lam["sim"] <= 0 || w["sim"] <= 0 || navg["sim"] <= 0 {
		t.Fatalf("sim stage unobserved: lambda=%v w=%v navg=%v", lam["sim"], w["sim"], navg["sim"])
	}

	// The same occupancy via the paper pipeline: a flat profile whose
	// latency is the measured per-sim W, queried at the bandwidth this
	// arrival rate implies (bw = λ × lineBytes).
	const lineBytes = 64
	curve := queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 0, LatencyNs: w["sim"] * 1e9},
		{BandwidthGBs: 100, LatencyNs: w["sim"] * 1e9},
	})
	want := curve.OccupancyAt(lam["sim"]*lineBytes/1e9, lineBytes)
	if rel := math.Abs(navg["sim"]-want) / want; rel > 0.05 {
		t.Fatalf("trace sim n_avg = %.5f, OccupancyAt = %.5f (%.1f%% off)", navg["sim"], want, rel*100)
	}

	// And against the runner's own books: busy seconds / uptime, integrated
	// over the same kernel intervals on a clock started microseconds apart.
	occ := run.Stats().Occupancy
	if occ <= 0 {
		t.Fatalf("runner occupancy = %v, want > 0", occ)
	}
	if rel := math.Abs(navg["sim"]-occ) / occ; rel > 0.05 {
		t.Fatalf("trace sim n_avg = %.5f, runner occupancy = %.5f (%.1f%% off)", navg["sim"], occ, rel*100)
	}
}
