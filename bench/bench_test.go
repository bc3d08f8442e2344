package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"littleslaw/bench/gen"
)

// smoke runs one workload at about a hundredth of its size. No wall-clock
// assertion anywhere: counts, status codes and the workload's own
// self-assertions only, so the test catches a harness broken by a refactor
// without becoming a third timing-flaky test.
func smoke(t *testing.T, workload string, seed int64, traced bool) *result {
	t.Helper()
	o := options{
		workload:  workload,
		seed:      seed,
		seconds:   0.3,
		traced:    traced,
		portBase:  0, // ephemeral: nothing here depends on the ring's layout
		spansDir:  t.TempDir(),
		goldenDir: filepath.Join("..", "internal", "experiments", "testdata", "golden"),
		small:     true,
	}
	var r *result
	var err error
	if workload == gen.TablesBatch {
		r, err = runTables(context.Background(), o)
	} else {
		r, err = runServing(context.Background(), o)
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s seed %d: correct=%t attempted=%d failed=%d violations=%v",
			workload, seed, r.Correct, r.Attempted, r.Failed, r.Violations)
	}
	if r.Exact["error_rate"] != 0 || r.Exact["output_mismatches"] != 0 {
		t.Fatalf("%s: exact metrics %v, want zeros", workload, r.Exact)
	}
	if len(r.Metrics) != len(r.defs()) {
		t.Fatalf("%s: %d metrics reported, catalog has %d", workload, len(r.Metrics), len(r.defs()))
	}
	return r
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range gen.Workloads() {
		smoke(t, w, 42, false)
	}
}

// Seed 123 — not the one the harness was written against — runs clean too.
func TestSmokeOtherSeed(t *testing.T) {
	for _, w := range []string{gen.HitServe, gen.MissServe, gen.FleetZipf} {
		smoke(t, w, 123, false)
	}
}

// The traced run of the fleet covers every seam the harness wraps: client,
// proxy handler, backend handler, the direct-call rows and the span file.
func TestSmokeTracedFleet(t *testing.T) {
	r := smoke(t, gen.FleetZipf, 42, true)
	for _, name := range []string{"cluster.proxy_self_us", "service.handler_us", "http.transport_us",
		"bench.floor_us", "runner.hits", "sim.run_ms", "cluster.backend_share_max"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on the traced fleet run, want it measured", name, r.Metrics[name].Value)
		}
	}
	if got := r.Metrics["cluster.owner_share"].Value; got != 1 {
		t.Errorf("cluster.owner_share = %v, want every request routed to its owner", got)
	}
}

func TestSmokeTracedTables(t *testing.T) {
	r := smoke(t, gen.TablesBatch, 42, true)
	// The process-wide runner cache may already hold these runs (another
	// test regenerated the same table), so the simulation count is not
	// asserted here; the full-size run pins it at 46.
	for _, name := range []string{"experiments.navg_mape_pct", "experiments.table_ms.VII", "sim.ns_per_demand_op.SKL", "events.ns_per_event"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on the traced tables run, want it measured", name, r.Metrics[name].Value)
		}
	}
}

// BENCHMARK.json is the contract the driver reads; the catalogs in
// result.go are what the harness prints. They must not drift apart.
func TestBenchmarkJSONMatchesTheCatalogs(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	// tables_batch is the harness's fourth workload and not the contract's:
	// one fixed batch of five requests a run has nothing to take a median
	// over (README, "Departures").
	if want := strings.Join(gen.Workloads()[:3], ","); strings.Join(workloads, ",") != want {
		t.Errorf("workloads %v, want %s", workloads, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalog has %d", len(spec.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s [%s], catalog has %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v / better %q outside the contract", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			sawSetup = true
		}
	}
	if !sawSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalog has %d", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s [%s], catalog has %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q [%q] outside the contract's name or unit alphabet", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

func writeResults(t *testing.T, rs ...*result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.json")
	for _, r := range rs {
		r.seal()
		if err := r.appendTo(path); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func fakeRun(workload string, rps, p50 float64) *result {
	r := newResult(workload, 42, 20, false, 2)
	r.Attempted = 100
	for _, d := range endToEnd {
		r.set(d.name, 1)
	}
	r.set("throughput_rps", rps)
	r.set("lat_p50_ms", p50)
	r.Exact["error_rate"], r.Exact["output_mismatches"] = 0, 0
	return r
}

func TestCompare(t *testing.T) {
	spec := filepath.Join("..", "BENCHMARK.json")
	base := writeResults(t, fakeRun(gen.HitServe, 1000, 1.0), fakeRun(gen.HitServe, 1100, 1.1), fakeRun(gen.HitServe, 900, 0.9))
	var out bytes.Buffer

	same := writeResults(t, fakeRun(gen.HitServe, 950, 1.05))
	if ok, err := compareFiles(&out, spec, base, same); err != nil || !ok {
		t.Errorf("a run inside every bound was rejected (err %v):\n%s", err, out.String())
	}

	slower := writeResults(t, fakeRun(gen.HitServe, 600, 1.0))
	out.Reset()
	if ok, err := compareFiles(&out, spec, base, slower); err != nil || ok {
		t.Errorf("40%% less throughput accepted (err %v):\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION line in:\n%s", out.String())
	}

	// Faster is never a regression, whatever the size.
	faster := writeResults(t, fakeRun(gen.HitServe, 5000, 0.2))
	if ok, _ := compareFiles(&out, spec, base, faster); !ok {
		t.Error("an improvement was rejected")
	}

	// An exact metric that moved fails however small the move.
	wrong := fakeRun(gen.HitServe, 1000, 1.0)
	wrong.Exact["output_mismatches"] = 1
	out.Reset()
	if ok, _ := compareFiles(&out, spec, base, writeResults(t, wrong)); ok {
		t.Errorf("a changed exact metric was accepted:\n%s", out.String())
	}

	// A workload present on one side only cannot be compared.
	if ok, _ := compareFiles(&out, spec, base, writeResults(t, fakeRun(gen.MissServe, 20, 50))); ok {
		t.Error("files with different workloads compared equal")
	}
}

// The window's numbers come from the requests that ran while nothing was
// stolen, every class giving the same share of its requests.
func TestStatsPrefersUnstolenTime(t *testing.T) {
	// Four seconds, a reading every 100 ms; the hypervisor takes half the
	// machine during the second half. Class 0 answers in 1 ms and class 1
	// in 10 ms while the machine is whole, and three times slower after.
	p := &phase{length: 4 * time.Second}
	steal := int64(0)
	for at := time.Duration(0); at <= p.length; at += 100 * time.Millisecond {
		if at > 2*time.Second {
			steal += int64(5 * runtime.NumCPU()) // half of 100 ms, in 10 ms ticks, on every CPU
		}
		p.ticks = append(p.ticks, tick{at: at, steal: steal})
	}
	for i := 0; i < 400; i++ {
		begin := time.Duration(i) * 10 * time.Millisecond
		class, lat := int16(i%2), time.Millisecond
		if class == 1 {
			lat = 10 * time.Millisecond
		}
		if begin >= 2*time.Second {
			lat *= 3
		}
		p.samples = append(p.samples, sample{idx: int32(i), class: class, ok: true, end: begin + lat, lat: lat, cycle: lat})
	}
	w := p.stats()
	if w.measured != 400 || w.samples < 400/3 || w.samples > 200 {
		t.Fatalf("%d of %d samples used, want between a third and the clean half", w.samples, w.measured)
	}
	if w.p50 > 10 || w.p95 != 10 {
		t.Errorf("p50 %v ms, p95 %v ms: a stolen second's latencies were counted (want <= 10 and 10)", w.p50, w.p95)
	}
	// Equal shares of 1 ms and 10 ms requests on two clients.
	if want := clients * 1000 / 5.5; math.Abs(w.rps-want) > 0.01*want {
		t.Errorf("throughput %v, want %v", w.rps, want)
	}
	if w.steal < 0.2 || w.steal > 0.3 {
		t.Errorf("stolen share of the window %v, want a quarter", w.steal)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want float64
	}{
		{0.99, 100000, 0.99}, // plenty beyond
		{0.99, 400, 0.975},   // ten beyond
		{0.95, 400, 0.95},    // twenty beyond already
		{0.99, 5, 0.99},      // too few to cap: the slowest request
	} {
		if got := tailQuantile(c.q, c.n); got != c.want {
			t.Errorf("tailQuantile(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}
