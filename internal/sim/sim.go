// Package sim runs whole-node simulations: N cores × M hardware threads
// executing a routine's memory-operation stream against the shared memory
// system, and reports steady-state measurements — bandwidth, true MSHR
// occupancies, stall breakdowns and work throughput — over a warmed-up
// measurement window.
package sim

import (
	"context"
	"fmt"
	"math"

	"littleslaw/internal/cpu"
	"littleslaw/internal/events"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
)

// Config describes one node run.
type Config struct {
	Plat *platform.Platform

	// Cores simulated; 0 means Plat.Cores.
	Cores int
	// ThreadsPerCore is the SMT degree in use (1 = no SMT).
	ThreadsPerCore int
	// Window is the per-thread demand window; 0 means Plat.DemandWindow.
	Window int
	// GapScale multiplies every compute gap beyond the SMT scaling
	// (e.g. the platform's scalar issue penalty); 0 means 1.
	GapScale float64
	// WarmupFrac is validated (0 ≤ f < 0.9; 0 means 0.15) and is part of
	// the runner's cache key, but the kernel never consults its value: the
	// measurement window opens when every thread has retired 64 operations
	// (see RunContext), whatever the fraction says.
	WarmupFrac float64
	// SMTShare overrides the platform's SMTComputeShare for this routine
	// (0 = platform default). Latency-bound routines leave the issue
	// pipeline mostly idle, so their co-resident threads contend less
	// than the platform-wide calibration assumes.
	SMTShare float64
	// SMTExponent overrides the sharing exponent (0 = the default 2/3).
	// Routines whose SMT threads contend a serial resource (shared
	// temporaries, store buffers) scale closer to linearly (exponent 1).
	SMTExponent float64
	// NewGen builds the generator for a hardware thread.
	NewGen func(core, thread int) cpu.Generator
	// Fingerprint identifies the operation stream NewGen produces (e.g.
	// "workloads/ISx|scalar|scale=1"). Two Configs with equal normalized
	// scalar fields, equal platforms and equal Fingerprints must simulate
	// identically; the runner layer caches on that identity. Leave empty
	// for ad-hoc generators (trace replays, bespoke streams) — an empty
	// Fingerprint makes the run uncacheable.
	Fingerprint string
	// ConfigureHierarchy, if set, runs on every core's memory hierarchy
	// after construction (ablation hooks such as disabling MSHR
	// coalescing). Setting it also makes the run uncacheable and opts the
	// hierarchies out of pooling, since the hook may perturb state beyond
	// what Reset restores.
	ConfigureHierarchy func(*memsys.Hierarchy)
}

func (c *Config) normalize() error {
	if c.Plat == nil {
		return fmt.Errorf("sim: nil platform")
	}
	if err := c.Plat.Validate(); err != nil {
		return err
	}
	if c.NewGen == nil {
		return fmt.Errorf("sim: nil generator factory")
	}
	if c.Cores == 0 {
		c.Cores = c.Plat.Cores
	}
	if c.Cores < 0 {
		return fmt.Errorf("sim: negative core count")
	}
	if c.ThreadsPerCore == 0 {
		c.ThreadsPerCore = 1
	}
	if c.ThreadsPerCore < 1 || c.ThreadsPerCore > c.Plat.SMTWays {
		return fmt.Errorf("sim: %d threads/core outside platform's 1..%d", c.ThreadsPerCore, c.Plat.SMTWays)
	}
	if c.Window == 0 {
		c.Window = c.Plat.DemandWindow
	}
	if c.GapScale < 0 {
		return fmt.Errorf("sim: negative gap scale %v", c.GapScale)
	}
	if c.GapScale == 0 {
		c.GapScale = 1
	}
	if c.WarmupFrac < 0 {
		return fmt.Errorf("sim: negative warmup fraction %v", c.WarmupFrac)
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.15
	}
	if c.WarmupFrac >= 0.9 {
		return fmt.Errorf("sim: warmup fraction %v outside [0, 0.9)", c.WarmupFrac)
	}
	if c.SMTShare < 0 {
		return fmt.Errorf("sim: negative SMT compute share %v", c.SMTShare)
	}
	if c.SMTExponent < 0 {
		return fmt.Errorf("sim: negative SMT sharing exponent %v", c.SMTExponent)
	}
	return nil
}

// Normalized returns a copy of c with every zero-default resolved (core
// count, SMT depth, window, gap scale, warmup fraction), validated the way
// RunContext validates it. Two Configs with equal Normalized scalar fields,
// the same platform and the same Fingerprint simulate identically — the
// canonical identity the runner layer caches on.
func (c Config) Normalized() (Config, error) {
	if err := (&c).normalize(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Result reports steady-state measurements over the measurement window.
type Result struct {
	Platform       string
	Cores          int
	ThreadsPerCore int

	WindowPs events.Duration // measurement window length

	// Work throughput: application elements per second. Speedups between
	// variants of the same routine are throughput ratios.
	Work       float64
	Throughput float64

	// Memory traffic over the window.
	ReadGBs  float64 // DRAM read bandwidth (GB/s)
	WriteGBs float64 // DRAM writeback bandwidth (GB/s)
	TotalGBs float64

	// Far-tier traffic and memory-side cache hit rate, when the platform
	// runs a two-tier memory (KNL cache mode); zero otherwise.
	SlowGBs       float64
	MCHitFraction float64

	// MeanDRAMLatencyNs is the true average read round trip in the window.
	MeanDRAMLatencyNs float64

	// MeanLoadLatencyNs is the average demand load-to-use latency seen by
	// the threads — what a PEBS-style sampling counter reports. For
	// prefetch-covered streams this is far below the true memory latency
	// (the §II critique).
	MeanLoadLatencyNs float64

	// True per-core mean MSHR occupancies (averaged across cores): the
	// simulator's ground truth that the Little's-Law estimate must track.
	TrueL1Occ float64
	TrueL2Occ float64
	L1PeakOcc int
	L2PeakOcc int

	// Stall fractions: share of the window × threads during which demand
	// requests sat waiting for a full MSHR file.
	L1FullStallFrac float64
	L2FullStallFrac float64

	// PrefetchedReadFraction is the share of memory reads initiated by
	// prefetchers rather than demand misses (recipe input).
	PrefetchedReadFraction float64

	HWPrefetchIssued  uint64
	HWPrefetchDropped uint64
	SWPrefetches      uint64
	SWPrefetchDropped uint64

	DemandLoads  uint64
	DemandStores uint64
	L1MissRatio  float64
	L2MissRatio  float64

	// DRAM row-buffer behaviour (diagnostics).
	RowHitFraction float64
}

// RunContext executes the configured node simulation to completion and
// returns steady-state measurements, with cooperative cancellation: the
// event loop checks ctx every few thousand dispatched events and aborts
// with ctx.Err() when it fires. A completed run's result is unaffected by
// the checks.
//
// A run shares no mutable state with other runs beyond the memsys node and
// hierarchy pools, whose contents are fully reset on release: the node
// (with its scheduler) and the hierarchies are one run's alone while it
// has them, and the per-thread generators (seeded RNGs included) are
// constructed per call, so concurrent runs are race-clean and each
// produces the same bits it would alone.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// cancelled polls ctx cheaply from the event-loop conditions: an
	// atomic-free modulo counter keeps the per-event overhead negligible.
	const cancelCheckEvery = 8192
	cancelSteps := 0
	cancelled := func() bool {
		cancelSteps++
		return cancelSteps%cancelCheckEvery == 0 && ctx.Err() != nil
	}
	node := memsys.AcquireNode(cfg.Plat)
	sched := node.Sched

	gapScale := cfg.GapScale
	// SMT pacing: n co-resident threads each run at
	// max(1, share × n^(2/3)) of their solo compute pace (see
	// platform.Platform.SMTComputeShare).
	if n := cfg.ThreadsPerCore; n > 1 {
		share := cfg.Plat.SMTComputeShare
		if cfg.SMTShare > 0 {
			share = cfg.SMTShare
		}
		exp := cfg.SMTExponent
		if exp == 0 {
			exp = 2.0 / 3.0
		}
		if f := share * math.Pow(float64(n), exp); f > 1 {
			gapScale *= f
		}
	}

	// Hierarchies come from the shared pool unless a configuration hook may
	// leave state behind that Reset does not restore.
	usePool := cfg.ConfigureHierarchy == nil
	cores := make([]*cpu.Core, cfg.Cores)
	genBuf := make([]cpu.Generator, cfg.Cores*cfg.ThreadsPerCore)
	totalThreads := 0
	for ci := range cores {
		gens := genBuf[ci*cfg.ThreadsPerCore : (ci+1)*cfg.ThreadsPerCore : (ci+1)*cfg.ThreadsPerCore]
		for ti := range gens {
			gens[ti] = cfg.NewGen(ci, ti)
		}
		var hier *memsys.Hierarchy
		if usePool {
			hier = memsys.AcquireHierarchy(node)
		} else {
			hier = memsys.NewHierarchy(node)
			cfg.ConfigureHierarchy(hier)
		}
		cores[ci] = cpu.NewCoreWith(node, hier, gens, cfg.Window, gapScale)
		totalThreads += len(cores[ci].Threads)
	}
	// Whatever has been read into the result by the time this frame ends is
	// all that survives: Reset makes an abandoned (cancelled, failed) run's
	// node and hierarchies as good as a completed one's. Hierarchies go
	// back first, while their node is still this run's.
	defer func() {
		if usePool {
			for _, c := range cores {
				memsys.ReleaseHierarchy(c.Hier)
			}
		}
		memsys.ReleaseNode(node)
	}()

	finished := 0
	onFinish := func() { finished++ }
	for _, c := range cores {
		for _, t := range c.Threads {
			t.OnFinish = onFinish
		}
	}

	for _, c := range cores {
		c.Start()
	}

	// Warmup: total per-thread work is unknown a priori, so the window
	// opens when every thread has retired a fixed minimum batch (or, for a
	// workload too short for that, when the first thread drains), checked
	// every few thousand events. normalize has made cfg.WarmupFrac
	// positive, so the guard below always passes; the fraction's value is
	// not consulted.
	const checkEvery = 4096
	steps := 0
	warmTarget := func() bool {
		min := ^uint64(0)
		for _, c := range cores {
			for _, t := range c.Threads {
				if t.Stats.Retired < min {
					min = t.Stats.Retired
				}
			}
		}
		return min >= 64 // every thread past its cold-start transient
	}
	if cfg.WarmupFrac > 0 {
		sched.RunWhile(func() bool {
			if cancelled() {
				return false
			}
			steps++
			if steps%checkEvery != 0 {
				return true
			}
			return finished == 0 && !warmTarget()
		})
	}

	// Open the measurement window.
	node.ResetStats()
	workBase := 0.0
	for _, c := range cores {
		c.Hier.ResetStats()
		workBase += c.Work()
	}
	t1 := sched.Now()

	// Measure until the first thread drains (steady state throughout).
	sched.RunWhile(func() bool { return !cancelled() && finished == 0 })
	t2 := sched.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: run cancelled: %w", err)
	}
	if finished == 0 || t2 <= t1 {
		// Workload too small for the warmup protocol: fall back to a
		// whole-run measurement.
		node.ResetStats()
		for _, c := range cores {
			c.Hier.ResetStats()
		}
		workBase = 0
		t1 = 0
		sched.RunWhile(func() bool { return !cancelled() })
		t2 = sched.Now()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run cancelled: %w", err)
		}
		if t2 == 0 {
			return nil, fmt.Errorf("sim: empty run (no simulated time elapsed)")
		}
	}

	window := t2 - t1
	seconds := window.Seconds()

	res := &Result{
		Platform:       cfg.Plat.Name,
		Cores:          cfg.Cores,
		ThreadsPerCore: cfg.ThreadsPerCore,
		WindowPs:       window,
	}

	lineBytes := float64(cfg.Plat.LineBytes)
	d := node.DRAM.Stats
	res.ReadGBs = float64(d.Reads) * lineBytes / seconds / 1e9
	res.WriteGBs = float64(d.Writes) * lineBytes / seconds / 1e9
	res.TotalGBs = res.ReadGBs + res.WriteGBs
	res.MeanDRAMLatencyNs = d.MeanReadLatencyNs()
	if rh := d.RowHits + d.RowMisses; rh > 0 {
		res.RowHitFraction = float64(d.RowHits) / float64(rh)
	}
	if node.SlowDRAM != nil {
		res.SlowGBs = float64(node.SlowDRAM.Stats.BytesMoved(cfg.Plat.LineBytes)) / seconds / 1e9
		res.MCHitFraction = node.MCHitFraction()
	}

	var work float64
	var l1occ, l2occ float64
	var l1stall, l2stall uint64
	var loadLatPs, loadN uint64
	var demandMiss, hwMiss, swMiss uint64
	var l1hits, l1misses, l2hits, l2misses uint64
	for _, c := range cores {
		work += c.Work()
		for _, th := range c.Threads {
			loadLatPs += th.Stats.LoadLatencyPs
			loadN += th.Stats.Retired
		}
		h := c.Hier
		l1occ += h.L1M.Occ.Mean(t2)
		l2occ += h.L2M.Occ.Mean(t2)
		if pk := h.L1M.Occ.Peak(); pk > res.L1PeakOcc {
			res.L1PeakOcc = pk
		}
		if pk := h.L2M.Occ.Peak(); pk > res.L2PeakOcc {
			res.L2PeakOcc = pk
		}
		l1stall += h.Stats.L1FullStallPs
		l2stall += h.Stats.L2FullStallPs
		demandMiss += h.Stats.L2MissDemand
		hwMiss += h.Stats.L2MissHWPrefetch
		swMiss += h.Stats.L2MissSWPrefetch
		res.HWPrefetchIssued += h.PF.Stats.Issued
		res.HWPrefetchDropped += h.Stats.HWPrefetchDropped
		res.SWPrefetches += h.Stats.SWPrefetches
		res.SWPrefetchDropped += h.Stats.SWPrefetchDropped
		res.DemandLoads += h.Stats.DemandLoads
		res.DemandStores += h.Stats.DemandStores
		l1hits += h.L1.Stats.Hits
		l1misses += h.L1.Stats.Misses
		l2hits += h.L2.Stats.Hits
		l2misses += h.L2.Stats.Misses
	}
	res.Work = work - workBase
	res.Throughput = res.Work / seconds
	if loadN > 0 {
		res.MeanLoadLatencyNs = float64(loadLatPs) / float64(loadN) / 1e3
	}
	nc := float64(len(cores))
	res.TrueL1Occ = l1occ / nc
	res.TrueL2Occ = l2occ / nc
	threadPs := float64(window) * float64(totalThreads)
	res.L1FullStallFrac = float64(l1stall) / threadPs
	res.L2FullStallFrac = float64(l2stall) / threadPs
	if total := demandMiss + hwMiss + swMiss; total > 0 {
		res.PrefetchedReadFraction = float64(hwMiss+swMiss) / float64(total)
	}
	if t := l1hits + l1misses; t > 0 {
		res.L1MissRatio = float64(l1misses) / float64(t)
	}
	if t := l2hits + l2misses; t > 0 {
		res.L2MissRatio = float64(l2misses) / float64(t)
	}
	return res, nil
}
