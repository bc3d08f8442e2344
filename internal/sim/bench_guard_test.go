package sim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
	"littleslaw/internal/trace"
)

// baselineAllocs reads BENCH_baseline.json at the repo root and returns the
// largest recorded allocs/op per bench name — the budget the guard holds
// the traced path to.
func baselineAllocs(t *testing.T) map[string]int64 {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Skipf("no BENCH_baseline.json: %v", err)
	}
	var rows []struct {
		Bench  string `json:"bench"`
		Allocs int64  `json:"allocs_per_op"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("BENCH_baseline.json: %v", err)
	}
	max := map[string]int64{}
	for _, r := range rows {
		if r.Allocs > max[r.Bench] {
			max[r.Bench] = r.Allocs
		}
	}
	return max
}

const tracedRunAllocs = 8

// TestRunAllocsWithinBaselineTraced is the allocation guard on the traced
// hot path: running the BenchmarkRun workloads through the runner spine
// with an armed trace context must stay within tracedRunAllocs of the
// untraced BENCH_baseline.json allocs/op. Now that a kernel run allocates
// a few dozen objects, the allowance is a count, not a percentage: the
// trace, its id, its context and the run's few spans (6 today). If this
// trips, a span crept into a per-event or per-op loop.
func TestRunAllocsWithinBaselineTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short (race matrix)")
	}
	baseline := baselineAllocs(t)
	run := runner.New(0)
	for _, bc := range []struct {
		name string
		plat *platform.Platform
		ops  int
	}{
		{"SKL_mix", platform.SKL(), 6000},
		{"KNL_mix", platform.KNL(), 4000},
	} {
		want, ok := baseline[bc.name]
		if !ok {
			t.Fatalf("bench %q missing from BENCH_baseline.json", bc.name)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh trace per iteration, exactly as a request carries
				// one; benchConfig has no fingerprint, so the runner's
				// bypass path executes the kernel every time.
				tr := trace.New(fmt.Sprintf("bench-%d", i), "bench")
				ctx := trace.NewContext(b.Context(), tr)
				out, err := run.Run(ctx, benchConfig(bc.plat, bc.ops))
				if err != nil {
					b.Fatal(err)
				}
				if out.Throughput <= 0 {
					b.Fatal("no work measured")
				}
				if tr.Attributed() <= 0 {
					b.Fatal("trace recorded nothing; the guard is not exercising the traced path")
				}
			}
		})
		got := res.AllocsPerOp()
		limit := want + tracedRunAllocs
		t.Logf("%s: %d allocs/op traced, baseline %d (limit %d)", bc.name, got, want, limit)
		if got > limit {
			t.Errorf("%s: traced path allocates %d/op, above baseline %d + %d — tracing overhead regressed",
				bc.name, got, want, tracedRunAllocs)
		}
	}
}

// TestSecondRunAllocs pins what a run of an already-seen geometry may
// allocate: its generators (an RNG, its source, the closure and its
// counter: 5 a thread here), its threads (the struct and two window-sized
// arrays), its cores (the struct and its thread list), and the run's own
// few slices, closures and Result — 42 objects and ~25 KiB for
// benchConfig's 4 threads on 4 cores, almost all of it the RNG sources. No
// node, cache, MSHR, queue or event: those come from the pools and the
// events are values. The budgets leave room for a few objects, not for a
// per-miss or per-run construction to creep back (a hierarchy is a dozen
// objects and tens of KiB or more; SKL's node is 4 MiB).
func TestSecondRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short (race matrix)")
	}
	const maxObjects, maxBytes = 48, 40 << 10
	for _, bc := range []struct {
		plat *platform.Platform
		ops  int
	}{
		{platform.SKL(), 6000},
		{platform.KNL(), 4000},
		{platform.KNLCacheMode(), 4000},
	} {
		run := func() {
			if _, err := sim.RunContext(context.Background(), benchConfig(bc.plat, bc.ops)); err != nil {
				t.Fatal(err)
			}
		}
		run() // the first run of the geometry builds what the pools then keep
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: second run allocates %d objects, %d bytes", bc.plat.Name, objects, bytes)
		if objects > maxObjects || bytes > maxBytes {
			t.Errorf("%s: second run allocates %d objects / %d bytes, budget %d / %d — something is constructed per run again",
				bc.plat.Name, objects, bytes, maxObjects, maxBytes)
		}
	}
}
