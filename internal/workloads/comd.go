package workloads

import (
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

const (
	comdFootprint = 1 << 26
	comdOps       = 1500
)

// comdMissGapCycles is the calibrated compute interval between cache
// misses in eamForce: the per-platform force-kernel cost per escaping
// memory access, matching the Table VII base bandwidths (3.19 GB/s SKL,
// 26.9 GB/s KNL, 10.75 GB/s A64FX). The KNL interval is far shorter in
// cycles because the box is split over 64 cores: each core's working set
// is smaller, and the 512 KiB L2 captures proportionally less of the
// neighbour shells per unit work.
var comdMissGapCycles = map[string]float64{
	"SKL":   1010,
	"KNL":   215,
	"A64FX": 2060,
}

// comdVectGain is the vectorization speedup (Table VII): limited by
// gather/scatter and conditionals, nowhere near the 8× lane count.
var comdVectGain = map[string]float64{
	"SKL":   1.40,
	"KNL":   1.35,
	"A64FX": 1.24,
}

// comdConfig models the eamForce routine of the classical
// molecular-dynamics proxy (24³ box): almost pure computation over
// neighbour lists that stay cache-resident, with only a trickle of memory
// traffic — the compute-bound, near-zero-MLP case of Table VII.
// Vectorization needs a pragma on the next-to-innermost loop (§IV-D) and
// pays a modest factor; SMT pays repeatedly because the pipeline, not the
// memory system, is the bottleneck.
func comdConfig(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	ops := scaleOps(comdOps, scale)
	gap := comdMissGapCycles[p.Name]
	if gap == 0 {
		gap = 1000
	}
	if v.Vectorized {
		g := comdVectGain[p.Name]
		if g == 0 {
			g = 1.3
		}
		gap /= g
	}

	return sim.Config{
		Plat:           p,
		ThreadsPerCore: threadsPerCore,
		Window:         min(4, p.DemandWindow),
		NewGen: func(coreID, threadID int) cpu.Generator {
			rng := newRNG("comd", coreID, threadID)
			base := uint64(coreID*8+threadID+1) << 34
			emitted := 0
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if emitted >= ops {
					return cpu.Op{}, false
				}
				emitted++
				// The rare neighbour-shell access that escapes the caches.
				addr := base + alignLine(rng.Uint64()%comdFootprint, p)
				return cpu.Op{Addr: addr, Kind: memsys.Load, GapCycles: gap, Work: 1}, true
			})
		},
	}
}
