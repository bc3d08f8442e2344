package workloads

import (
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

const (
	// pennantMeshBytes is the per-thread share of the corner/zone/point
	// arrays — far beyond cache, as with the paper's 960×1080 mesh.
	pennantMeshBytes = 1 << 27
	pennantOps       = 6000
)

// pennantConfig models the setCornerDiv routine of the unstructured-mesh
// physics miniapp: one long loop whose body gathers through index arrays
// into several large mesh arrays and performs heavy floating-point work
// (divides, square roots). The compiler cannot prove the pointers
// alias-free, so the base variant is scalar and dependency-limited — the
// low-MLP case of Table VI; forcing vectorization (pragma/restrict, §IV-C)
// is the recipe's headline win.
func pennantConfig(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	ops := scaleOps(pennantOps, scale)

	// Scalar: ~5 independent gathers per loop iteration, ~425 cycles of
	// serial arithmetic (divides/sqrts) between iterations. Vectorized:
	// adjacent corners' gathers coalesce into fewer distinct lines (3 on
	// 64 B machines, 2 with A64FX's 256 B lines) and the arithmetic chain
	// shortens by the platform's effective vector gain.
	gathers := 5
	gap := 425.0
	gapScale := p.ScalarIssuePenalty
	window := min(6, p.DemandWindow)
	if v.Vectorized {
		if p.LineBytes >= 256 {
			gathers = 2
		} else {
			gathers = 3
		}
		switch {
		case p.ScalarIssuePenalty > 2: // A64FX: 3.7× from SVE
			gap = 425.0 / 3.7 * p.ScalarIssuePenalty
			gapScale = 1
		case p.DemandWindow <= 12: // KNL: weak OoO gains most, 3.2×
			gap = 425.0 / 3.2
			gapScale = 1
		default: // SKL: 2×
			gap = 425.0 / 2.0
			gapScale = 1
		}
		window = min(10, p.DemandWindow)
	}
	perGatherGap := gap / float64(gathers)

	// KNL's barrel-style issue overlaps gather-latency-bound threads almost
	// for free; calibrated to the Table VI SMT rows (2-way HT scales the
	// bandwidth 1.79× there, against CoMD's compute-bound 1.52×).
	smtShare := 0.0
	if p.Name == "KNL" {
		smtShare = 0.65
	}

	return sim.Config{
		Plat:           p,
		ThreadsPerCore: threadsPerCore,
		Window:         window,
		GapScale:       gapScale,
		SMTShare:       smtShare,
		NewGen: func(coreID, threadID int) cpu.Generator {
			rng := newRNG("pennant", coreID, threadID)
			base := uint64(coreID*8+threadID+1) << 34
			emitted := 0
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if emitted >= ops*gathers {
					return cpu.Op{}, false
				}
				emitted++
				addr := base + alignLine(rng.Uint64()%pennantMeshBytes, p)
				return cpu.Op{
					Addr:      addr,
					Kind:      memsys.Load,
					GapCycles: perGatherGap,
					Work:      1.0 / float64(gathers),
				}, true
			})
		},
	}
}
