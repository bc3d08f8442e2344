// Command paperbench regenerates the paper's evaluation artifacts from the
// simulated platforms: Tables I–IX, Figure 2, and the Section I/II critique
// experiments, each printed alongside the published values.
//
// Usage:
//
//	paperbench                      # everything
//	paperbench -table IV            # one table (I..III static, IV..IX simulated)
//	paperbench -figure 2            # the Figure-2 roofline series (CSV)
//	paperbench -experiment tma-critique|latency-counter|mshr-stalls|idle-latency
//	paperbench -ablation mshr-sweep|stream-table|coalescing|future-hbm|prefetch-level|cache-mode
//	paperbench -scale 0.3           # faster, noisier runs
//	paperbench -platform KNL        # restrict simulated tables
//	paperbench -csv                 # machine-readable table output
//	paperbench -workers 8           # simulation concurrency (default GOMAXPROCS)
//	paperbench -timeout 10m         # abort cleanly if regeneration overruns
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"littleslaw/internal/buildinfo"
	"littleslaw/internal/experiments"
	"littleslaw/internal/report"
)

func main() {
	table := flag.String("table", "", "regenerate one table (I..IX); default all")
	figure := flag.String("figure", "", "regenerate one figure (2)")
	experiment := flag.String("experiment", "", "run one critique experiment (tma-critique, latency-counter, mshr-stalls, idle-latency)")
	ablation := flag.String("ablation", "", "run one design ablation (mshr-sweep, stream-table, coalescing, future-hbm, prefetch-level, cache-mode)")
	scale := flag.Float64("scale", 1.0, "work scale factor (lower = faster, noisier)")
	plats := flag.String("platform", "", "restrict to one platform (SKL, KNL, A64FX)")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial; output is identical either way)")
	timeout := flag.Duration("timeout", 0, "overall deadline (0 = none)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "paperbench")
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := experiments.Options{Scale: *scale, Workers: *workers}
	if *plats != "" {
		opts.Platforms = []string{*plats}
	}
	r := experiments.NewRunner(opts)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}

	switch {
	case *figure != "":
		if *figure != "2" {
			fail(fmt.Errorf("unknown figure %q (the paper's only data figure is 2)", *figure))
		}
		m, err := r.Figure2()
		if err != nil {
			fail(err)
		}
		if err := m.WriteCSV(os.Stdout); err != nil {
			fail(err)
		}
		return

	case *experiment != "":
		runExperiment(r, *experiment, fail)
		return

	case *ablation != "":
		runAblation(r, *ablation, fail)
		return

	case *table != "":
		emitTable(ctx, r, *table, *csv, fail)
		return
	}

	// Everything.
	for _, id := range []string{"I", "II", "III"} {
		emitTable(ctx, r, id, *csv, fail)
	}
	// One flat dispatch across all six tables fills internal/runner's cache,
	// so the per-table emission below simulates nothing.
	if _, err := r.AllTablesContext(ctx); err != nil {
		fail(err)
	}
	for _, id := range experiments.TableIDs() {
		emitTable(ctx, r, id, *csv, fail)
	}
	m, err := r.Figure2()
	if err != nil {
		fail(err)
	}
	fmt.Println("FIGURE 2 — roofline with MSHR ceilings (KNL)")
	if err := m.WriteCSV(os.Stdout); err != nil {
		fail(err)
	}
	fmt.Println()
	for _, e := range []string{"tma-critique", "latency-counter", "mshr-stalls", "idle-latency"} {
		runExperiment(r, e, fail)
	}
	for _, a := range []string{"mshr-sweep", "stream-table", "coalescing", "future-hbm", "prefetch-level", "cache-mode"} {
		runAblation(r, a, fail)
	}
}

func runAblation(r *experiments.Runner, name string, fail func(error)) {
	switch name {
	case "mshr-sweep":
		pts, err := r.MSHRSweep(nil)
		if err != nil {
			fail(err)
		}
		fmt.Println("ABLATION — L1 MSHR capacity vs achievable bandwidth (ISx/KNL)")
		for _, p := range pts {
			fmt.Printf("  %2d MSHRs: %6.1f GB/s (true occupancy %5.2f)\n", p.L1MSHRs, p.BandwidthGBs, p.TrueL1Occ)
		}
		fmt.Println("(random-access bandwidth tracks the MSHR file — the structural basis of the metric)")
		fmt.Println()
	case "stream-table":
		pts, err := r.StreamTableSweep(nil)
		if err != nil {
			fail(err)
		}
		fmt.Println("ABLATION — prefetcher stream-table size vs 4-way SMT gain (HPCG/KNL, §IV-B)")
		for _, p := range pts {
			fmt.Printf("  %2d streams: 2HT %6.1f GB/s, 4HT %6.1f GB/s, gain %.2fx\n",
				p.Streams, p.BW2HT, p.BW4HT, p.Gain4HTOver)
		}
		fmt.Println("(the 16-entry table explains the paper's weak 1.03x 4-way gain)")
		fmt.Println()
	case "coalescing":
		ab, err := r.Coalescing()
		if err != nil {
			fail(err)
		}
		fmt.Println("ABLATION — MSHR coalescing (word-granular stream, SKL)")
		fmt.Printf("  coalesced: %.1f GB/s | duplicated: %.1f GB/s | traffic per work %.2fx | slowdown %.2fx\n",
			ab.BWCoalesced, ab.BWDuplicate, ab.TrafficBlowup, ab.Slowdown)
		fmt.Println()
	case "future-hbm":
		res, err := r.FutureHBM()
		if err != nil {
			fail(err)
		}
		fmt.Println("ABLATION — §IV-G future HBM3e-class node (vectorized HPCG)")
		fmt.Printf("  %.0f GB/s = %.0f%% of peak while L2 MSHR occupancy is %.1f of %d\n",
			res.BandwidthGBs, 100*res.PeakFraction, res.TrueL2Occ, res.L2Capacity)
		fmt.Println("(the MSHR file fills long before peak bandwidth: 'below peak' no longer implies compute-bound)")
		fmt.Println()
	case "prefetch-level":
		res, err := r.PrefetchLevel()
		if err != nil {
			fail(err)
		}
		fmt.Println("ABLATION — software-prefetch target level (ISx/KNL +vect,2ht, §III-C)")
		fmt.Printf("  prefetch to L1: %.2fx | prefetch to L2: %.2fx\n", res.L1Speedup, res.L2Speedup)
		fmt.Println("(L1 prefetches compete with demand for the scarce L1 MSHRs; L2 prefetches use the idle L2 file)")
		fmt.Println()
	case "cache-mode":
		out, err := r.CacheMode()
		if err != nil {
			fail(err)
		}
		fmt.Println("ABLATION \u2014 KNL flat vs MCDRAM cache mode (extension)")
		for _, c := range out {
			fmt.Printf("  %-45s flat/cache speedup %.2fx (memory-cache hit rate %.0f%%)\n",
				c.Workload, c.FlatOverCache, 100*c.MCHitFrac)
		}
		fmt.Println("(the paper's flat-mode choice: random footprints beyond the cache thrash it)")
		fmt.Println()
	default:
		fail(fmt.Errorf("unknown ablation %q", name))
	}
}

func emitTable(ctx context.Context, r *experiments.Runner, id string, csv bool, fail func(error)) {
	switch id {
	case "I", "II", "III":
		s, err := experiments.DescribeStatic(id)
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
		return
	}
	start := time.Now()
	t, err := r.TableContext(ctx, id)
	if err != nil {
		fail(err)
	}
	if csv {
		if err := report.WriteTableCSV(os.Stdout, t); err != nil {
			fail(err)
		}
		return
	}
	if err := report.WriteTable(os.Stdout, t); err != nil {
		fail(err)
	}
	fmt.Printf("(generated in %.1fs)\n\n", time.Since(start).Seconds())
}

func runExperiment(r *experiments.Runner, name string, fail func(error)) {
	switch name {
	case "tma-critique":
		out, err := r.TMACritiques()
		if err != nil {
			fail(err)
		}
		fmt.Println("EXPERIMENT — TMA critique (§I/§II)")
		for _, c := range out {
			fmt.Printf("\n%s on SKL:\n  TMA:    %s\n", c.Case, c.TMA.Summary())
			fmt.Printf("  metric: %s\n", c.Report)
			fmt.Printf("  true loaded latency: %.0f ns\n  %s\n", c.TrueLoadedLatencyNs, c.Commentary)
		}
		fmt.Println()
	case "latency-counter":
		exp, err := r.LatencyCounterCritique()
		if err != nil {
			fail(err)
		}
		fmt.Println("EXPERIMENT — latency-threshold counter on ISx/SKL (§II)")
		fmt.Printf("true loaded latency: %.0f ns = %.0f cycles\n", exp.TrueLoadedLatencyNs, exp.TrueLoadedLatencyCy)
		for _, s := range exp.Samples {
			fmt.Printf("  loads reported above %3d cycles: %4.0f%%\n", s.ThresholdCycles, 100*s.Fraction)
		}
		fmt.Println("(the counter attributes re-dispatch and page walks to latency; the paper measured 75% above 512cy against a true ~378cy)")
		fmt.Println()
	case "mshr-stalls":
		exp, err := r.MSHRStalls()
		if err != nil {
			fail(err)
		}
		fmt.Println("EXPERIMENT — MSHR residency before/after L2 prefetch, ISx/A64FX (§IV-A)")
		fmt.Printf("  base:      L1 occupancy %.2f, L2 occupancy %.2f\n", exp.BaseL1Occ, exp.BaseL2Occ)
		fmt.Printf("  +l2-pref:  L1 occupancy %.2f, L2 occupancy %.2f (speedup %.2fx)\n",
			exp.PrefL1Occ, exp.PrefL2Occ, exp.Speedup)
		fmt.Println("(the bottleneck moves from the L1 MSHR file to the larger L2 file, as the paper verified with a cycle-level simulator)")
		fmt.Println()
	case "idle-latency":
		out, err := r.IdleLatencyAblations()
		if err != nil {
			fail(err)
		}
		fmt.Println("ABLATION — idle vs loaded latency in Equation 2 (§III-B)")
		for _, a := range out {
			verdict := "same verdict"
			if a.DecisionFlips {
				verdict = "FLIPS the saturation verdict"
			}
			fmt.Printf("  %-12s at %6.1f GB/s: idle %3.0f ns → n_avg %5.2f | loaded %3.0f ns → n_avg %5.2f (%s)\n",
				a.Case, a.BandwidthGBs, a.IdleNs, a.OccIdle, a.LoadedNs, a.OccLoaded, verdict)
		}
		fmt.Println("(vendor idle latency underestimates MLP; the loaded profile is what makes Little's Law usable)")
		fmt.Println()
	default:
		fail(fmt.Errorf("unknown experiment %q", name))
	}
}
