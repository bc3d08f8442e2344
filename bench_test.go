// Benchmark harness: one macro-benchmark per paper table and figure (each
// iteration regenerates the artifact end to end — full-node simulation,
// counter readout, profile lookup, recipe), plus micro-benchmarks of the
// substrates. Macro benchmarks run at a reduced work scale and on the
// platform with the richest column of the corresponding table; run
//
//	go test -bench=Table -benchtime=1x
//
// for one full regeneration per table, or use cmd/paperbench for the
// full-scale, all-platform versions.
package littleslaw_test

import (
	"context"
	"math/rand"
	"testing"

	"littleslaw"
	"littleslaw/internal/events"
	"littleslaw/internal/experiments"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
	"littleslaw/internal/xmem"
)

// benchProfiles supplies the paper-anchored curves so macro benches
// measure table regeneration, not re-characterization.
func benchProfiles(p *platform.Platform) (*queueing.Curve, error) {
	switch p.Name {
	case "SKL":
		return queueing.NewCurve([]queueing.CurvePoint{
			{BandwidthGBs: 0.5, LatencyNs: 82}, {BandwidthGBs: 58.2, LatencyNs: 100},
			{BandwidthGBs: 92.9, LatencyNs: 117}, {BandwidthGBs: 106.9, LatencyNs: 145},
			{BandwidthGBs: 112, LatencyNs: 220},
		})
	case "KNL":
		return queueing.NewCurve([]queueing.CurvePoint{
			{BandwidthGBs: 1, LatencyNs: 166}, {BandwidthGBs: 233, LatencyNs: 180},
			{BandwidthGBs: 296, LatencyNs: 209}, {BandwidthGBs: 344, LatencyNs: 238},
			{BandwidthGBs: 365, LatencyNs: 330},
		})
	case "A64FX":
		return queueing.NewCurve([]queueing.CurvePoint{
			{BandwidthGBs: 2, LatencyNs: 142}, {BandwidthGBs: 575, LatencyNs: 179},
			{BandwidthGBs: 649, LatencyNs: 188}, {BandwidthGBs: 788, LatencyNs: 280},
			{BandwidthGBs: 812, LatencyNs: 330},
		})
	}
	return nil, nil
}

func benchTable(b *testing.B, id, plat string, scale float64) {
	b.Helper()
	benchTableWorkers(b, id, plat, scale, 1)
}

func benchTableWorkers(b *testing.B, id, plat string, scale float64, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{
			Scale:      scale,
			Platforms:  []string{plat},
			ProfileFor: benchProfiles,
			Workers:    workers,
		})
		t, err := r.Table(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIV regenerates the ISx ladder (Table IV, KNL column: the
// base→vect→2HT→4HT→L2-prefetch sequence).
func BenchmarkTableIV(b *testing.B) { benchTable(b, "IV", "KNL", 0.1) }

// BenchmarkTableIV_Serial pins the table's distinct runs to one worker —
// the baseline for the parallel engine's speedup claim.
func BenchmarkTableIV_Serial(b *testing.B) { benchTableWorkers(b, "IV", "KNL", 0.1, 1) }

// BenchmarkTableIV_Parallel dispatches the table's distinct runs across
// GOMAXPROCS workers; the output is byte-identical to the serial run
// (compare against BenchmarkTableIV_Serial on a multi-core host).
func BenchmarkTableIV_Parallel(b *testing.B) { benchTableWorkers(b, "IV", "KNL", 0.1, 0) }

// BenchmarkAllTables_Serial regenerates all six tables' KNL/SKL/A64FX-free
// subset serially — see BenchmarkAllTables_Parallel.
func BenchmarkAllTables_Serial(b *testing.B) { benchAllTables(b, 1) }

// BenchmarkAllTables_Parallel regenerates every table with all distinct
// simulations across the six tables sharing one worker-pool dispatch.
func BenchmarkAllTables_Parallel(b *testing.B) { benchAllTables(b, 0) }

func benchAllTables(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{
			Scale:      0.05,
			Platforms:  []string{"KNL"},
			ProfileFor: benchProfiles,
			Workers:    workers,
		})
		ts, err := r.AllTables()
		if err != nil {
			b.Fatal(err)
		}
		if len(ts) != 6 {
			b.Fatalf("got %d tables", len(ts))
		}
	}
}

// BenchmarkTableV regenerates the HPCG ladder (Table V, KNL column).
func BenchmarkTableV(b *testing.B) { benchTable(b, "V", "KNL", 0.1) }

// BenchmarkTableVI regenerates the PENNANT ladder (Table VI, KNL column).
func BenchmarkTableVI(b *testing.B) { benchTable(b, "VI", "KNL", 0.1) }

// BenchmarkTableVII regenerates the CoMD ladder (Table VII, KNL column).
func BenchmarkTableVII(b *testing.B) { benchTable(b, "VII", "KNL", 0.1) }

// BenchmarkTableVIII regenerates the MiniGhost ladder (Table VIII, A64FX
// column — the largest tiling effect).
func BenchmarkTableVIII(b *testing.B) { benchTable(b, "VIII", "A64FX", 0.1) }

// BenchmarkTableIX regenerates the SNAP ladder (Table IX, SKL column).
func BenchmarkTableIX(b *testing.B) { benchTable(b, "IX", "SKL", 0.1) }

// BenchmarkFigure2 regenerates the MSHR-ceiling roofline with its two ISx
// points.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Scale: 0.1, ProfileFor: benchProfiles})
		m, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Points) != 2 {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkXMemOperatingPoint measures one X-Mem sweep point (full-node
// load generation plus the latency probe) — the unit of Table-III
// characterization cost.
func BenchmarkXMemOperatingPoint(b *testing.B) {
	p := platform.SKL()
	for i := 0; i < b.N; i++ {
		_, err := xmem.Characterize(p, xmem.Options{
			ProbeOps:  60,
			WarmupOps: 20,
			Levels:    []xmem.Level{{Window: 8}},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel times one simulation of each kernel the serving
// benchmark's miss_serve workload asks for — {SKL,KNL,A64FX} x {ISx,HPCG,
// PENNANT,CoMD} and SNAP on A64FX, at scale 0.005, where the workloads'
// operation budget is at its floor as in every miss_serve request — and
// KNL MiniGhost at the golden tables' scale 0.05, their costliest run. One
// op is one sim.RunContext with no cache in front: the discrete-event
// kernel alone.
func BenchmarkKernel(b *testing.B) {
	type kernel struct {
		plat, workload string
		scale          float64
	}
	var ks []kernel
	for _, p := range []string{"SKL", "KNL", "A64FX"} {
		for _, w := range []string{"ISx", "HPCG", "PENNANT", "CoMD"} {
			ks = append(ks, kernel{p, w, 0.005})
		}
	}
	ks = append(ks, kernel{"A64FX", "SNAP", 0.005}, kernel{"KNL", "MiniGhost", 0.05})
	for _, k := range ks {
		p, err := platform.ByName(k.plat)
		if err != nil {
			b.Fatal(err)
		}
		w, ok := workloads.ByName(k.workload)
		if !ok {
			b.Fatalf("no workload %q", k.workload)
		}
		b.Run(k.plat+"_"+k.workload, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.RunContext(context.Background(), w.Config(p, 1, k.scale))
				if err != nil {
					b.Fatal(err)
				}
				if res.Throughput <= 0 {
					b.Fatal("no work measured")
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks -----------------------------------------

// BenchmarkDRAMRandomAccess measures the memory-device model's event rate
// under random traffic.
func BenchmarkDRAMRandomAccess(b *testing.B) {
	p := platform.SKL()
	sched := &events.Scheduler{}
	d := memsys.NewDRAM(sched, p)
	rng := rand.New(rand.NewSource(1))
	gap := events.FromNanoseconds(0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := sched.Now() + gap
		line := memsys.Line(rng.Uint64() & (1<<24 - 1))
		sched.At(at, func() { d.Access(line, false, nil) })
		sched.RunUntil(at)
	}
	sched.Run()
}

// BenchmarkCacheAccess measures the set-associative cache hot path.
func BenchmarkCacheAccess(b *testing.B) {
	c := memsys.NewCache(512, 8)
	rng := rand.New(rand.NewSource(2))
	lines := make([]memsys.Line, 4096)
	for i := range lines {
		lines[i] = memsys.Line(rng.Uint64() & (1<<16 - 1))
	}
	for _, l := range lines {
		c.Fill(l, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(lines[i&4095], false) {
			c.Fill(lines[i&4095], false)
		}
	}
}

// BenchmarkHierarchyLoad measures a full L1→L2→L3→DRAM round trip through
// one core's hierarchy.
func BenchmarkHierarchyLoad(b *testing.B) {
	p := platform.SKL()
	sched := &events.Scheduler{}
	node := memsys.NewNode(sched, p)
	h := memsys.NewHierarchy(node)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		h.Access(rng.Uint64()&(1<<30-1), memsys.Load, func() { done = true })
		sched.RunWhile(func() bool { return !done })
	}
}

// BenchmarkCurveLookup measures the profile interpolation on the metric's
// hot path.
func BenchmarkCurveLookup(b *testing.B) {
	c, _ := benchProfiles(platform.SKL())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.LatencyAt(float64(i % 120))
	}
}

// BenchmarkSolveEquilibrium measures the closed-loop fixed-point solver.
func BenchmarkSolveEquilibrium(b *testing.B) {
	c, _ := benchProfiles(platform.KNL())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SolveEquilibrium(float64(100+i%1000), 64)
	}
}

// BenchmarkAnalyze measures the metric computation itself (Equation 2 +
// classification) — the part a real deployment runs per routine.
func BenchmarkAnalyze(b *testing.B) {
	p := platform.KNL()
	c, _ := benchProfiles(p)
	m := littleslaw.Measurement{Routine: "bench", BandwidthGBs: 250, PrefetchedReadFraction: 0.2, RandomAccess: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := littleslaw.Analyze(p, c, m); err != nil {
			b.Fatal(err)
		}
	}
}
