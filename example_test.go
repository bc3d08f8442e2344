package littleslaw_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"littleslaw"
	"littleslaw/internal/core"
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/roofline"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
	"littleslaw/internal/stream"
	"littleslaw/internal/workloads"
	"littleslaw/internal/xmem"
)

// Example_quickstart is the paper's method in five steps: characterize the
// machine once, run a routine loaded, read bandwidth, apply Little's Law,
// follow the recipe.
func Example_quickstart() {
	// 1. Pick a machine (Table III).
	knl, err := littleslaw.Platform("KNL")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Measure its bandwidth→latency profile once (X-Mem, footnote 2).
	fmt.Println("characterizing KNL (once per platform)...")
	profile, err := littleslaw.Characterize(knl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  idle latency %.0f ns, achievable peak %.0f GB/s (theoretical %.0f)\n\n",
		profile.IdleLatencyNs(), profile.MaxBandwidthGBs(), knl.PeakGBs())

	// 3. Run the routine under analysis on the loaded node (Table II's ISx).
	isx, err := littleslaw.Workload("ISx")
	if err != nil {
		log.Fatal(err)
	}
	res, err := littleslaw.Run(isx, knl, 1, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ISx/count_local_keys: %.1f GB/s observed\n", res.TotalGBs)

	// 4. The metric: Equation 2 turns bandwidth + looked-up latency into
	// the average MSHR-queue occupancy.
	report, err := littleslaw.Analyze(knl, profile, littleslaw.MeasurementFrom(isx, res))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(littleslaw.Explain(report))

	// 5. The recipe (Figure 1): which optimizations are worth trying.
	fmt.Println("recipe verdicts:")
	for _, a := range littleslaw.Advise(report, isx.Capabilities(knl, 1)) {
		fmt.Printf("  %-24s %-10s %s\n", a.Opt, a.Stance, a.Reason)
	}
	// Output:
	// characterizing KNL (once per platform)...
	//   idle latency 167 ns, achievable peak 357 GB/s (theoretical 400)
	//
	// ISx/count_local_keys: 214.3 GB/s observed
	// count_local_keys on KNL: 214.3 GB/s (54% peak), lat 185 ns, n_avg 9.69 of 12 L1 MSHRs
	// → Headroom: 19% of the L1 MSHRQ is unused; MLP-raising optimizations (vectorization, SMT, prefetching) should pay off.
	//
	// recipe verdicts:
	//   vectorization            recommend  occupancy 9.7 of 12 L1 MSHRs leaves headroom; vectorization raises MLP
	//   2-way SMT                recommend  headroom in the MSHRQ: co-resident threads add independent misses
	//   L2 software prefetching  recommend  L1 MSHRQ binds (9.7 of 12) but ~22 L2 MSHRs are idle: prefetch to L2 to shift the bottleneck
	//   unroll-and-jam           neutral    memory latency dominates; register reuse is secondary
}

// Example_isxWalkthrough replays the paper's §IV-A case study: the full
// ISx optimization ladder on Knights Landing, with the metric consulted
// before every step and the measured speedup after it — ending at the
// Figure-2 insight that the L1 MSHR file is a roofline ceiling of its own,
// broken only by moving the in-flight window to the L2 file.
func Example_isxWalkthrough() {
	knl, err := littleslaw.Platform("KNL")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("characterizing KNL...")
	profile, err := littleslaw.Characterize(knl)
	if err != nil {
		log.Fatal(err)
	}
	isx, err := littleslaw.Workload("ISx")
	if err != nil {
		log.Fatal(err)
	}

	vect := littleslaw.Variant{Vectorized: true}
	vectPref := littleslaw.Variant{Vectorized: true, SWPrefetchL2: true}
	ladder := []struct {
		label   string
		variant littleslaw.Variant
		threads int
		next    string
		nextOpt core.Optimization
	}{
		{"base", littleslaw.Variant{}, 1, "vectorize", core.Vectorize},
		{"+vect", vect, 1, "2-way SMT", core.SMT2},
		{"+vect,2ht", vect, 2, "L2 software prefetch", core.SoftwarePrefetchL2},
		{"+vect,2ht,l2pref", vectPref, 2, "", 0},
	}

	var prev *littleslaw.RunResult
	for _, st := range ladder {
		w := isx.WithVariant(st.variant)
		res, err := littleslaw.Run(w, knl, st.threads, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := littleslaw.Analyze(knl, profile, littleslaw.MeasurementFrom(w, res))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== %s\n", st.label)
		if prev != nil {
			fmt.Printf("   speedup over previous step: %.2fx\n", res.Throughput/prev.Throughput)
		}
		fmt.Printf("   %s\n", rep)
		if st.next != "" {
			a := core.AdviceFor(littleslaw.Advise(rep, w.Capabilities(knl, st.threads)), st.nextOpt)
			fmt.Printf("   recipe on %s: %s — %s\n", st.next, a.Stance, a.Reason)
		}
		prev = res
	}

	// The Figure-2 view: the baseline sat under an invisible ceiling.
	fmt.Println("\n== Figure 2: the MSHR ceiling")
	m, err := littleslaw.Roofline(knl, profile)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range m.Ceilings {
		fmt.Printf("   roof %-12s %7.1f GB/s\n", c.Name, c.BandwidthGBs)
	}
	fmt.Println("   the base run presses against the L1-MSHR roof; the classic")
	fmt.Println("   roofline (DRAM peak only) would wrongly promise SMT headroom.")
	// Output:
	// characterizing KNL...
	//
	// == base
	//    count_local_keys on KNL: 214.3 GB/s (54% peak), lat 185 ns, n_avg 9.69 of 12 L1 MSHRs
	//    recipe on vectorize: recommend — occupancy 9.7 of 12 L1 MSHRs leaves headroom; vectorization raises MLP
	//
	// == +vect
	//    speedup over previous step: 1.08x
	//    count_local_keys on KNL: 230.5 GB/s (58% peak), lat 188 ns, n_avg 10.55 of 12 L1 MSHRs
	//    recipe on 2-way SMT: recommend — headroom in the MSHRQ: co-resident threads add independent misses
	//
	// == +vect,2ht
	//    speedup over previous step: 1.07x
	//    count_local_keys on KNL: 248.2 GB/s (62% peak), lat 190 ns, n_avg 11.51 of 12 L1 MSHRs
	//    recipe on L2 software prefetch: recommend — L1 MSHRQ binds (11.5 of 12) but ~20 L2 MSHRs are idle: prefetch to L2 to shift the bottleneck
	//
	// == +vect,2ht,l2pref
	//    speedup over previous step: 1.43x
	//    count_local_keys on KNL: 354.3 GB/s (89% peak), lat 293 ns, n_avg 25.34 of 32 L2 MSHRs
	//
	// == Figure 2: the MSHR ceiling
	//    roof DRAM peak      400.0 GB/s
	//    roof L2 MSHRs       356.8 GB/s
	//    roof L1 MSHRs       257.1 GB/s
	//    the base run presses against the L1-MSHR roof; the classic
	//    roofline (DRAM peak only) would wrongly promise SMT headroom.
}

// Example_snapRoutines demonstrates the paper's §III-D methodology point:
// collect the metric per routine, not per program. A SNAP-like application
// is replayed as its phases — the hot dim3_sweep plus lighter solver
// phases — through the stream monitor /v1/watch serves, and its
// whole-program average is shown to wash the sweep's
// signal out (the paper found the same on real SNAP: only the per-routine
// profile revealed dim3_sweep as latency-bound and prefetchable).
func Example_snapRoutines() {
	skl, err := littleslaw.Platform("SKL")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("characterizing SKL...")
	profile, err := littleslaw.Characterize(skl)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := littleslaw.Workload("SNAP")
	if err != nil {
		log.Fatal(err)
	}
	comd, err := littleslaw.Workload("CoMD") // stands in for SNAP's light phases
	if err != nil {
		log.Fatal(err)
	}

	// Replay each phase as counter samples in proportion to its share of
	// the run (11:9 is 55 %:45 %), one sample per monitor window, so each
	// phase report is that routine's own measurement and the summary is
	// the time-weighted whole-program average.
	ctx := context.Background()
	src, runs, err := stream.Replay(ctx, []stream.ReplayPhase{
		{Label: "dim3_sweep", Config: snap.Config(skl, 1, 0.05), Samples: 11},
		{Label: "outer_solver", Config: comd.Config(skl, 1, 0.05), Samples: 9},
	}, stream.ReplayOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cfg := stream.Config{Platform: skl, Profile: profile, WindowSamples: 1, StrideSamples: 1}
	for _, r := range runs {
		cfg.ActiveCores = max(cfg.ActiveCores, r.Result.Cores)
		cfg.ThreadsPerCore = max(cfg.ThreadsPerCore, r.Result.ThreadsPerCore)
	}
	var phases []*stream.PhaseEvent
	whole, err := stream.Monitor(ctx, src, cfg, func(ev stream.Event) error {
		if ev.Kind == "phase" {
			phases = append(phases, ev.Phase)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(phases) != len(runs) {
		log.Fatalf("monitor found %d phases in %d routines", len(phases), len(runs))
	}

	fmt.Println("Profile on SKL (per-routine, then whole-program)")
	fmt.Printf("%-20s %7s %12s %10s %8s %10s\n", "Routine", "Time%", "BW GB/s", "lat ns", "n_avg", "limiter")
	for i, ph := range phases {
		fmt.Printf("%-20s %6.1f%% %12.1f %10.0f %8.2f %7s/%d\n", runs[i].Label,
			100*float64(ph.Windows)/float64(whole.Windows), ph.BandwidthGBs, ph.LatencyNs,
			ph.Occupancy, ph.Limiter, ph.LimiterCapacity)
	}
	fmt.Printf("%-20s %6s %12.1f %10s %8.2f %10s  (misleading average)\n",
		"whole-program", "100%", whole.BandwidthGBs, "", whole.Occupancy, "")

	fmt.Println()
	fmt.Printf("per-routine: dim3_sweep runs at n_avg %.2f with headroom → the recipe points at software prefetching.\n", phases[0].Occupancy)
	fmt.Printf("whole-program: the average (n_avg %.2f) blends the light solver in and undersells the sweep's memory problem.\n", whole.Occupancy)

	// Confirm the per-routine guidance pays off.
	pref := snap.WithVariant(workloads.Variant{SWPrefetchL2: true})
	base, err := littleslaw.Run(snap, skl, 1, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := littleslaw.Run(pref, skl, 1, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplying software prefetching to dim3_sweep alone: %.2fx (the paper saw 8%% on SNAP's KNL run, 1%% on SKL).\n",
		opt.Throughput/base.Throughput)
	// Output:
	// characterizing SKL...
	// Profile on SKL (per-routine, then whole-program)
	// Routine                Time%      BW GB/s     lat ns    n_avg    limiter
	// dim3_sweep             55.0%         55.9         91     3.31      L2/16
	// outer_solver           45.0%          3.2         82     0.17      L1/10
	// whole-program          100%         32.2                1.81             (misleading average)
	//
	// per-routine: dim3_sweep runs at n_avg 3.31 with headroom → the recipe points at software prefetching.
	// whole-program: the average (n_avg 1.81) blends the light solver in and undersells the sweep's memory problem.
	//
	// applying software prefetching to dim3_sweep alone: 1.19x (the paper saw 8% on SNAP's KNL run, 1% on SKL).
}

// Example_dgemmFlopBound walks the §III-C/§III-D worked example the paper
// sketches around GEMM: a kernel whose recipe-guided ladder runs through
// the two traffic-reducing optimizations — cache tiling, then
// unroll-and-jam (register tiling) — until the MSHR occupancy is so low
// that the metric itself says "memory is not your problem": the routine
// has become FLOP-bound, visible on the roofline.
func Example_dgemmFlopBound() {
	skl, err := littleslaw.Platform("SKL")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("characterizing SKL...")
	profile, err := littleslaw.Characterize(skl)
	if err != nil {
		log.Fatal(err)
	}
	dgemm, err := littleslaw.Workload("DGEMM")
	if err != nil {
		log.Fatal(err)
	}

	peak := roofline.PeakGFLOPs(skl)
	steps := []struct {
		label string
		v     littleslaw.Variant
	}{
		{"naive", littleslaw.Variant{}},
		{"+ cache tiling", littleslaw.Variant{Tiled: true}},
		{"+ unroll-and-jam", littleslaw.Variant{Tiled: true, UnrollJam: true}},
	}

	var prev float64
	for _, st := range steps {
		w := dgemm.WithVariant(st.v)
		res, err := littleslaw.Run(w, skl, 1, 0.3)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := littleslaw.Analyze(skl, profile, littleslaw.MeasurementFrom(w, res))
		if err != nil {
			log.Fatal(err)
		}
		gflops := res.Throughput / 1e9
		fmt.Printf("\n== %s\n", st.label)
		if prev > 0 {
			fmt.Printf("   speedup: %.2fx\n", res.Throughput/prev)
		}
		fmt.Printf("   %.0f GFLOP/s (%.0f%% of the %.0f GFLOP/s roof), %.1f GB/s, n_avg %.2f of %d %s MSHRs\n",
			gflops, 100*gflops/peak, peak, rep.BandwidthGBs, rep.Occupancy,
			rep.LimiterCapacity, rep.Limiter)
		adv := littleslaw.Advise(rep, w.Capabilities(skl, 1))
		if a := core.AdviceFor(adv, core.UnrollAndJam); a.Stance == littleslaw.Recommend {
			fmt.Printf("   recipe: %s — %s\n", a.Opt, a.Reason)
		}
		if rep.ComputeBound() {
			fmt.Println("   recipe: occupancy and bandwidth both low → compute bound; memory optimizations are done (§IV-G)")
		}
		prev = res.Throughput
	}
	// Output:
	// characterizing SKL...
	//
	// == naive
	//    25 GFLOP/s (2% of the 1613 GFLOP/s roof), 112.2 GB/s, n_avg 15.81 of 16 L2 MSHRs
	//
	// == + cache tiling
	//    speedup: 4.33x
	//    108 GFLOP/s (7% of the 1613 GFLOP/s roof), 112.0 GB/s, n_avg 15.78 of 16 L2 MSHRs
	//
	// == + unroll-and-jam
	//    speedup: 4.16x
	//    449 GFLOP/s (28% of the 1613 GFLOP/s roof), 70.7 GB/s, n_avg 4.40 of 16 L2 MSHRs
}

// Example_gpuOccupancy implements the paper's §IV-H future-work sketch:
// applying the MSHR-occupancy metric to a GPU-like device. Resident warps
// take the role SMT threads play on CPUs — each adds independent misses
// into the SM's shared MSHR file — so sweeping the warp count traces
// occupancy from "launch more blocks" territory up to the MSHR ceiling,
// where the recipe flips to occupancy-reducing advice (shared memory, the
// GPU's tiling).
func Example_gpuOccupancy() {
	gpu := platform.GPU()

	fmt.Println("characterizing the GPU-like device (once)...")
	profile, err := xmem.Characterize(gpu, xmem.Options{ProbeOps: 150, WarmupOps: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  idle latency %.0f ns, achievable %.0f GB/s of %.0f theoretical\n\n",
		profile.IdleLatencyNs(), profile.MaxBandwidthGBs(), gpu.PeakGBs())

	fmt.Println("sweeping resident warps per SM on a memory-divergent kernel:")
	fmt.Printf("%8s %12s %10s %10s %s\n", "warps", "BW GB/s", "n_avg", "of MSHRs", "recipe reading")

	for _, warps := range []int{1, 2, 4, 8, 16, 32} {
		res, err := runner.Run(context.Background(), gatherKernel(gpu, warps))
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.Analyze(gpu, profile, core.Measurement{
			Routine:                "divergent_gather",
			BandwidthGBs:           res.TotalGBs,
			ActiveCores:            res.Cores,
			ThreadsPerCore:         warps,
			PrefetchedReadFraction: res.PrefetchedReadFraction,
			RandomAccess:           true,
		})
		if err != nil {
			log.Fatal(err)
		}
		reading := "launch more blocks/warps (occupancy headroom)"
		if rep.OccupancySaturated() {
			reading = "MSHRQ full: use shared memory / reduce per-warp traffic"
		} else if rep.BandwidthSaturated() {
			reading = "at the bandwidth roof: reduce traffic"
		}
		fmt.Printf("%8d %12.1f %10.2f %7.0f%% %s\n",
			warps, res.TotalGBs, rep.Occupancy,
			100*rep.Occupancy/float64(rep.LimiterCapacity), reading)
	}

	fmt.Println("\nthe same Little's-Law pipeline — counters → profile → Equation 2 —")
	fmt.Println("prices GPU occupancy decisions exactly as §IV-H anticipated.")
	// Output:
	// characterizing the GPU-like device (once)...
	//   idle latency 425 ns, achievable 710 GB/s of 900 theoretical
	//
	// sweeping resident warps per SM on a memory-divergent kernel:
	//    warps      BW GB/s      n_avg   of MSHRs recipe reading
	//        1         47.6       7.91      25% launch more blocks/warps (occupancy headroom)
	//        2         95.3      15.89      50% launch more blocks/warps (occupancy headroom)
	//        4        188.6      31.73      99% MSHRQ full: use shared memory / reduce per-warp traffic
	//        8        190.5      32.07     100% MSHRQ full: use shared memory / reduce per-warp traffic
	//       16        190.5      32.07     100% MSHRQ full: use shared memory / reduce per-warp traffic
	//       32        190.5      32.07     100% MSHRQ full: use shared memory / reduce per-warp traffic
	//
	// the same Little's-Law pipeline — counters → profile → Equation 2 —
	// prices GPU occupancy decisions exactly as §IV-H anticipated.
}

// gatherKernel is a memory-divergent gather: every warp lane touches its
// own line, the pattern that makes GPU MLP MSHR-bound.
func gatherKernel(gpu *platform.Platform, warps int) sim.Config {
	return sim.Config{
		Plat:           gpu,
		Cores:          20, // a scaled-down grid: 20 of 80 SMs is plenty for shape
		ThreadsPerCore: warps,
		Window:         0, // platform default: per-warp outstanding misses
		NewGen: func(coreID, threadID int) cpu.Generator {
			rng := rand.New(rand.NewSource(int64(coreID*131 + threadID)))
			base := uint64(coreID*64+threadID+1) << 32
			n := 500
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if n <= 0 {
					return cpu.Op{}, false
				}
				n--
				return cpu.Op{
					Addr:      base + (rng.Uint64() & (1<<28 - 1)),
					Kind:      memsys.Load,
					GapCycles: 6, // a few ALU ops per lane-gather
					Work:      1,
				}, true
			})
		},
	}
}
