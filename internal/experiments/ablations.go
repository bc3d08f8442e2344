package experiments

import (
	"context"
	"fmt"

	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
)

// MSHRSweepPoint is one point of the MSHR-capacity ablation.
type MSHRSweepPoint struct {
	L1MSHRs      int
	BandwidthGBs float64
	TrueL1Occ    float64
	Throughput   float64
}

// MSHRSweep reruns ISx on KNL with the L1 MSHR capacity swept — the
// design-choice ablation behind the whole metric: achievable bandwidth for
// a random-access routine scales with the MSHR file until another resource
// binds, which is why MSHR occupancy is the right lens (§III-A).
func (r *Runner) MSHRSweep(capacities []int) ([]MSHRSweepPoint, error) {
	if len(capacities) == 0 {
		capacities = []int{4, 6, 8, 10, 12, 16, 20}
	}
	w, _ := workloads.ByName("ISx")
	var out []MSHRSweepPoint
	for _, c := range capacities {
		p, _ := platform.ByName("KNL")
		p.L1.MSHRs = c
		if p.L2.MSHRs < c {
			p.L2.MSHRs = c
		}
		cfg := w.Config(p, 1, r.opts.Scale)
		cfg.Window = c + 2 // keep the window from masking the MSHR file
		res, err := r.opts.SimRunner.Run(context.Background(), cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: mshr sweep %d: %w", c, err)
		}
		out = append(out, MSHRSweepPoint{
			L1MSHRs:      c,
			BandwidthGBs: res.TotalGBs,
			TrueL1Occ:    res.TrueL1Occ,
			Throughput:   res.Throughput,
		})
	}
	return out, nil
}

// StreamTableSweepPoint is one point of the prefetcher-table ablation.
type StreamTableSweepPoint struct {
	Streams     int
	BW2HT       float64
	BW4HT       float64
	Gain4HTOver float64 // throughput(4HT)/throughput(2HT)
}

// StreamTableSweep tests the paper's §IV-B mechanism for HPCG's weak
// 4-way-SMT gain on KNL: when the co-resident threads' streams
// oversubscribe the prefetcher's table, coverage collapses and the extra
// threads stop paying. Our HPCG model carries ~3 streams per thread (the
// real code nearer 8–10), so the collapse appears at a 4-entry table the
// way the paper's appears at 16; the sweep shows the gain recovering as
// the table grows past the stream population.
func (r *Runner) StreamTableSweep(tableSizes []int) ([]StreamTableSweepPoint, error) {
	if len(tableSizes) == 0 {
		tableSizes = []int{4, 8, 16, 32}
	}
	w, _ := workloads.ByName("HPCG")
	vect := workloads.Variant{Vectorized: true}
	var out []StreamTableSweepPoint
	for _, s := range tableSizes {
		run := func(threads int) (*sim.Result, error) {
			p, _ := platform.ByName("KNL")
			p.Prefetcher.Streams = s
			cfg := w.WithVariant(vect).Config(p, threads, r.opts.Scale)
			// Half the node: the mechanism under test is prefetcher
			// coverage, which DRAM saturation would mask.
			cfg.Cores = 32
			return r.opts.SimRunner.Run(context.Background(), cfg)
		}
		two, err := run(2)
		if err != nil {
			return nil, err
		}
		four, err := run(4)
		if err != nil {
			return nil, err
		}
		out = append(out, StreamTableSweepPoint{
			Streams:     s,
			BW2HT:       two.TotalGBs,
			BW4HT:       four.TotalGBs,
			Gain4HTOver: four.Throughput / two.Throughput,
		})
	}
	return out, nil
}

// CoalescingAblation compares MSHR coalescing on vs off on a scalar
// word-granular stream (eight 8-byte loads per line issued back to back,
// as unvectorized array code does): with coalescing the eight concurrent
// misses to one line merge into one memory read; without it each fetches
// the line again — the property that makes the MSHR file, which tracks
// *unique* lines, the correct MLP denominator (§III-A).
type CoalescingAblation struct {
	BWCoalesced   float64
	BWDuplicate   float64
	TrafficBlowup float64 // traffic per unit of work, off/on
	Slowdown      float64 // throughput(coalesced)/throughput(duplicated)
}

// Coalescing runs the ablation on SKL.
func (r *Runner) Coalescing() (*CoalescingAblation, error) {
	p, _ := platform.ByName("SKL")
	ops := int(12000 * r.opts.Scale)
	if ops < 500 {
		ops = 500
	}

	run := func(noCoalesce bool) (*sim.Result, error) {
		cfg := sim.Config{
			Plat:   p,
			Window: 8,
			NewGen: func(coreID, threadID int) cpu.Generator {
				base := uint64(coreID+1) << 34
				i := 0
				return cpu.GeneratorFunc(func() (cpu.Op, bool) {
					if i >= ops {
						return cpu.Op{}, false
					}
					// Scalar word-granular stream: 8 loads per 64B line.
					addr := base + uint64(i)*8
					i++
					return cpu.Op{Addr: addr, Kind: memsys.Load, GapCycles: 1, Work: 1}, true
				})
			},
			ConfigureHierarchy: func(h *memsys.Hierarchy) { h.NoCoalesce = noCoalesce },
		}
		return r.opts.SimRunner.Run(context.Background(), cfg)
	}
	on, err := run(false)
	if err != nil {
		return nil, err
	}
	off, err := run(true)
	if err != nil {
		return nil, err
	}
	return &CoalescingAblation{
		BWCoalesced:   on.TotalGBs,
		BWDuplicate:   off.TotalGBs,
		TrafficBlowup: (off.TotalGBs / off.Throughput) / (on.TotalGBs / on.Throughput),
		Slowdown:      on.Throughput / off.Throughput,
	}, nil
}

// FutureHBM runs the §IV-G thought experiment: on an HBM3e-class node the
// streaming HPCG fills the L2 MSHR file long before peak bandwidth, so
// "bandwidth below peak" no longer implies compute-bound — the MSHRQ does.
type FutureHBMResult struct {
	BandwidthGBs float64
	PeakFraction float64
	TrueL2Occ    float64
	L2Capacity   int
}

// FutureHBM runs HPCG (vectorized) on the hypothetical HBM3E platform.
func (r *Runner) FutureHBM() (*FutureHBMResult, error) {
	w, _ := workloads.ByName("HPCG")
	p := platform.HBM3E()
	res, err := r.opts.SimRunner.Run(context.Background(), w.WithVariant(workloads.Variant{Vectorized: true}).Config(p, 1, r.opts.Scale))
	if err != nil {
		return nil, err
	}
	return &FutureHBMResult{
		BandwidthGBs: res.TotalGBs,
		PeakFraction: res.TotalGBs / p.PeakGBs(),
		TrueL2Occ:    res.TrueL2Occ,
		L2Capacity:   p.L2.MSHRs,
	}, nil
}

// PrefetchLevelResult is the §III-C prefetch-level experiment: the same
// software prefetches sent to L1 vs L2 on a random-access routine whose
// L1 MSHR file is the bottleneck.
type PrefetchLevelResult struct {
	BaseThroughput float64
	L1Speedup      float64 // prefetch-to-L1: competes for the scarce L1 MSHRs
	L2Speedup      float64 // prefetch-to-L2: uses the idle L2 file
}

// PrefetchLevel runs ISx on KNL (vectorized, 2-way SMT — the state Table
// IV applies prefetching to, with the L1 MSHR file pinned) with both
// prefetch targets.
func (r *Runner) PrefetchLevel() (*PrefetchLevelResult, error) {
	w, _ := workloads.ByName("ISx")
	p, _ := platform.ByName("KNL")
	run := func(v workloads.Variant) (*sim.Result, error) {
		v.Vectorized = true
		return r.opts.SimRunner.Run(context.Background(), w.WithVariant(v).Config(p, 2, r.opts.Scale))
	}
	base, err := run(workloads.Variant{})
	if err != nil {
		return nil, err
	}
	l1, err := run(workloads.Variant{SWPrefetchL1: true})
	if err != nil {
		return nil, err
	}
	l2, err := run(workloads.Variant{SWPrefetchL2: true})
	if err != nil {
		return nil, err
	}
	return &PrefetchLevelResult{
		BaseThroughput: base.Throughput,
		L1Speedup:      l1.Throughput / base.Throughput,
		L2Speedup:      l2.Throughput / base.Throughput,
	}, nil
}

// CacheModeResult compares KNL's flat MCDRAM mode (the paper's setup)
// against cache mode for one workload.
type CacheModeResult struct {
	Workload      string
	FlatThr       float64
	CacheThr      float64
	FlatOverCache float64 // flat-mode speedup over cache mode
	MCHitFrac     float64 // memory-side cache hit rate in cache mode
}

// CacheMode runs the flat-vs-cache-mode comparison: ISx's random table
// (footprint far beyond the MCDRAM cache) thrashes the memory-side cache
// and pays the DDR penalty, while an iterative working set that fits is
// served at MCDRAM speed in both modes.
func (r *Runner) CacheMode() ([]CacheModeResult, error) {
	var out []CacheModeResult

	// Case 1: ISx — cache-unfriendly random footprint.
	w, _ := workloads.ByName("ISx")
	flatP, _ := platform.ByName("KNL")
	flat, err := r.opts.SimRunner.Run(context.Background(), w.Config(flatP, 1, r.opts.Scale))
	if err != nil {
		return nil, err
	}
	cacheP := platform.KNLCacheMode()
	cached, err := r.opts.SimRunner.Run(context.Background(), w.Config(cacheP, 1, r.opts.Scale))
	if err != nil {
		return nil, err
	}
	out = append(out, CacheModeResult{
		Workload:      "ISx (random, footprint >> MCDRAM cache)",
		FlatThr:       flat.Throughput,
		CacheThr:      cached.Throughput,
		FlatOverCache: flat.Throughput / cached.Throughput,
		MCHitFrac:     cached.MCHitFraction,
	})

	// Case 2: an iterative kernel whose working set fits the cache —
	// repeated sweeps over a bounded arena, as CG-style solvers do.
	iter := func(p *platform.Platform) (*sim.Result, error) {
		// Beyond the private L2 (512 KiB) but, summed over the node, far
		// under the 256 MiB memory-side cache; at least four passes so the
		// reuse is observable.
		const arenaLines = 10000
		ops := int(30000 * r.opts.Scale)
		if ops < 6*arenaLines {
			ops = 6 * arenaLines
		}
		return r.opts.SimRunner.Run(context.Background(), sim.Config{
			Plat:   p,
			Cores:  16, // a node slice: the mode comparison, not full contention
			Window: 8,
			NewGen: func(coreID, threadID int) cpu.Generator {
				base := uint64(coreID+1) << 34
				i, pos := 0, 0
				return cpu.GeneratorFunc(func() (cpu.Op, bool) {
					if i >= ops {
						return cpu.Op{}, false
					}
					i++
					addr := base + uint64(pos)*64
					pos++
					if pos >= arenaLines {
						pos = 0
					}
					return cpu.Op{Addr: addr, Kind: memsys.Load, GapCycles: 30, Work: 1}, true
				})
			},
		})
	}
	flat2, err := iter(flatP)
	if err != nil {
		return nil, err
	}
	cached2, err := iter(cacheP)
	if err != nil {
		return nil, err
	}
	out = append(out, CacheModeResult{
		Workload:      "iterative sweep (fits the MCDRAM cache)",
		FlatThr:       flat2.Throughput,
		CacheThr:      cached2.Throughput,
		FlatOverCache: flat2.Throughput / cached2.Throughput,
		MCHitFrac:     cached2.MCHitFraction,
	})
	return out, nil
}
