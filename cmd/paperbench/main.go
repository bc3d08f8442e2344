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
	"io"
	"os"
	"runtime"
	"time"

	"littleslaw/internal/cli"
	"littleslaw/internal/experiments"
	"littleslaw/internal/report"
)

func main() {
	cli.Exit("paperbench", run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	table := fs.String("table", "", "regenerate one table (I..IX); default all")
	figure := fs.String("figure", "", "regenerate one figure (2)")
	experiment := fs.String("experiment", "", "run one critique experiment (tma-critique, latency-counter, mshr-stalls, idle-latency)")
	ablation := fs.String("ablation", "", "run one design ablation (mshr-sweep, stream-table, coalescing, future-hbm, prefetch-level, cache-mode)")
	scale := fs.Float64("scale", 1.0, "work scale factor (lower = faster, noisier)")
	plats := fs.String("platform", "", "restrict to one platform (SKL, KNL, A64FX)")
	csv := fs.Bool("csv", false, "emit tables as CSV")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial; output is identical either way)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none)")
	version := fs.Bool("version", false, "print version and exit")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *version {
		cli.Print(stdout, "paperbench")
		return nil
	}
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

	switch {
	case *figure != "":
		if *figure != "2" {
			return fmt.Errorf("unknown figure %q (the paper's only data figure is 2)", *figure)
		}
		m, err := r.Figure2()
		if err != nil {
			return err
		}
		return m.WriteCSV(stdout)
	case *experiment != "":
		return runExperiment(stdout, r, *experiment)
	case *ablation != "":
		return runAblation(stdout, r, *ablation)
	case *table != "":
		return emitTable(ctx, stdout, r, *table, *csv)
	}

	// Everything.
	for _, id := range []string{"I", "II", "III"} {
		if err := emitTable(ctx, stdout, r, id, *csv); err != nil {
			return err
		}
	}
	// One flat dispatch across all six tables fills internal/runner's cache,
	// so the per-table emission below simulates nothing.
	if _, err := r.AllTablesContext(ctx); err != nil {
		return err
	}
	for _, id := range experiments.TableIDs() {
		if err := emitTable(ctx, stdout, r, id, *csv); err != nil {
			return err
		}
	}
	m, err := r.Figure2()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "FIGURE 2 — roofline with MSHR ceilings (KNL)")
	if err := m.WriteCSV(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	for _, e := range []string{"tma-critique", "latency-counter", "mshr-stalls", "idle-latency"} {
		if err := runExperiment(stdout, r, e); err != nil {
			return err
		}
	}
	for _, a := range []string{"mshr-sweep", "stream-table", "coalescing", "future-hbm", "prefetch-level", "cache-mode"} {
		if err := runAblation(stdout, r, a); err != nil {
			return err
		}
	}
	return nil
}

func runAblation(w io.Writer, r *experiments.Runner, name string) error {
	switch name {
	case "mshr-sweep":
		pts, err := r.MSHRSweep(nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ABLATION — L1 MSHR capacity vs achievable bandwidth (ISx/KNL)")
		for _, p := range pts {
			fmt.Fprintf(w, "  %2d MSHRs: %6.1f GB/s (true occupancy %5.2f)\n", p.L1MSHRs, p.BandwidthGBs, p.TrueL1Occ)
		}
		fmt.Fprintln(w, "(random-access bandwidth tracks the MSHR file — the structural basis of the metric)")
	case "stream-table":
		pts, err := r.StreamTableSweep(nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ABLATION — prefetcher stream-table size vs 4-way SMT gain (HPCG/KNL, §IV-B)")
		for _, p := range pts {
			fmt.Fprintf(w, "  %2d streams: 2HT %6.1f GB/s, 4HT %6.1f GB/s, gain %.2fx\n",
				p.Streams, p.BW2HT, p.BW4HT, p.Gain4HTOver)
		}
		fmt.Fprintln(w, "(the 16-entry table explains the paper's weak 1.03x 4-way gain)")
	case "coalescing":
		ab, err := r.Coalescing()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ABLATION — MSHR coalescing (word-granular stream, SKL)")
		fmt.Fprintf(w, "  coalesced: %.1f GB/s | duplicated: %.1f GB/s | traffic per work %.2fx | slowdown %.2fx\n",
			ab.BWCoalesced, ab.BWDuplicate, ab.TrafficBlowup, ab.Slowdown)
	case "future-hbm":
		res, err := r.FutureHBM()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ABLATION — §IV-G future HBM3e-class node (vectorized HPCG)")
		fmt.Fprintf(w, "  %.0f GB/s = %.0f%% of peak while L2 MSHR occupancy is %.1f of %d\n",
			res.BandwidthGBs, 100*res.PeakFraction, res.TrueL2Occ, res.L2Capacity)
		fmt.Fprintln(w, "(the MSHR file fills long before peak bandwidth: 'below peak' no longer implies compute-bound)")
	case "prefetch-level":
		res, err := r.PrefetchLevel()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ABLATION — software-prefetch target level (ISx/KNL +vect,2ht, §III-C)")
		fmt.Fprintf(w, "  prefetch to L1: %.2fx | prefetch to L2: %.2fx\n", res.L1Speedup, res.L2Speedup)
		fmt.Fprintln(w, "(L1 prefetches compete with demand for the scarce L1 MSHRs; L2 prefetches use the idle L2 file)")
	case "cache-mode":
		out, err := r.CacheMode()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ABLATION \u2014 KNL flat vs MCDRAM cache mode (extension)")
		for _, c := range out {
			fmt.Fprintf(w, "  %-45s flat/cache speedup %.2fx (memory-cache hit rate %.0f%%)\n",
				c.Workload, c.FlatOverCache, 100*c.MCHitFrac)
		}
		fmt.Fprintln(w, "(the paper's flat-mode choice: random footprints beyond the cache thrash it)")
	default:
		return fmt.Errorf("unknown ablation %q", name)
	}
	fmt.Fprintln(w)
	return nil
}

func emitTable(ctx context.Context, w io.Writer, r *experiments.Runner, id string, csv bool) error {
	switch id {
	case "I", "II", "III":
		s, err := experiments.DescribeStatic(id)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, s)
		return nil
	}
	start := time.Now()
	t, err := r.TableContext(ctx, id)
	if err != nil {
		return err
	}
	if csv {
		return report.WriteTableCSV(w, t)
	}
	if err := report.WriteTable(w, t); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "(generated in %.1fs)\n\n", time.Since(start).Seconds())
	return err
}

func runExperiment(w io.Writer, r *experiments.Runner, name string) error {
	switch name {
	case "tma-critique":
		out, err := r.TMACritiques()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "EXPERIMENT — TMA critique (§I/§II)")
		for _, c := range out {
			fmt.Fprintf(w, "\n%s on SKL:\n  TMA:    %s\n", c.Case, c.TMA.Summary())
			fmt.Fprintf(w, "  metric: %s\n", c.Report)
			fmt.Fprintf(w, "  true loaded latency: %.0f ns\n  %s\n", c.TrueLoadedLatencyNs, c.Commentary)
		}
	case "latency-counter":
		exp, err := r.LatencyCounterCritique()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "EXPERIMENT — latency-threshold counter on ISx/SKL (§II)")
		fmt.Fprintf(w, "true loaded latency: %.0f ns = %.0f cycles\n", exp.TrueLoadedLatencyNs, exp.TrueLoadedLatencyCy)
		for _, s := range exp.Samples {
			fmt.Fprintf(w, "  loads reported above %3d cycles: %4.0f%%\n", s.ThresholdCycles, 100*s.Fraction)
		}
		fmt.Fprintln(w, "(the counter attributes re-dispatch and page walks to latency; the paper measured 75% above 512cy against a true ~378cy)")
	case "mshr-stalls":
		exp, err := r.MSHRStalls()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "EXPERIMENT — MSHR residency before/after L2 prefetch, ISx/A64FX (§IV-A)")
		fmt.Fprintf(w, "  base:      L1 occupancy %.2f, L2 occupancy %.2f\n", exp.BaseL1Occ, exp.BaseL2Occ)
		fmt.Fprintf(w, "  +l2-pref:  L1 occupancy %.2f, L2 occupancy %.2f (speedup %.2fx)\n",
			exp.PrefL1Occ, exp.PrefL2Occ, exp.Speedup)
		fmt.Fprintln(w, "(the bottleneck moves from the L1 MSHR file to the larger L2 file, as the paper verified with a cycle-level simulator)")
	case "idle-latency":
		out, err := r.IdleLatencyAblations()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ABLATION — idle vs loaded latency in Equation 2 (§III-B)")
		for _, a := range out {
			verdict := "same verdict"
			if a.DecisionFlips {
				verdict = "FLIPS the saturation verdict"
			}
			fmt.Fprintf(w, "  %-12s at %6.1f GB/s: idle %3.0f ns → n_avg %5.2f | loaded %3.0f ns → n_avg %5.2f (%s)\n",
				a.Case, a.BandwidthGBs, a.IdleNs, a.OccIdle, a.LoadedNs, a.OccLoaded, verdict)
		}
		fmt.Fprintln(w, "(vendor idle latency underestimates MLP; the loaded profile is what makes Little's Law usable)")
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	fmt.Fprintln(w)
	return nil
}
