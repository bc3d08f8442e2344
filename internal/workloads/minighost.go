package workloads

import (
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

const (
	// Paper grid: nx=504, ny=126 (one plane ≈ 508 KiB — the geometry that
	// makes untiled z-reuse miss a ≤1 MiB L2). The z extent per thread is
	// scaled down; the full 768 planes × 40 variables only add repetition.
	mgNX     = 504
	mgNY     = 126
	mgTileY  = 16 // y-block height in the tiled variant
	mgPlanes = 8  // z planes swept per thread at scale 1
)

// mgOpGapCycles is the calibrated arithmetic cost per emitted access (a
// quarter of the per-line stencil work: 27 FMAs × points-per-line over 8
// lanes, plus index math), set so that the untiled sweep's request rate
// over-subscribes the memory system — the regime in which tiling's traffic
// reduction converts directly into time (Table VIII). mgWindow is the
// per-thread demand window.
var mgOpGapCycles = map[string]float64{
	"SKL":   23,
	"KNL":   15,
	"A64FX": 30,
}

var mgWindow = map[string]int{
	"SKL":   11,
	"KNL":   11,
	"A64FX": 7,
}

// minighostConfig models the mg_stencil_3d27pt routine: a 27-point
// difference stencil over a 504×126 plane grid (paper problem, z scaled).
// Per output line the stencil needs nine neighbour rows; the three
// same-plane y neighbours always hit cache (three rows fit everywhere), so
// the generator emits the three z-plane reads plus the output store — the
// accesses whose hit/miss behaviour actually changes with blocking. A
// z-neighbour line is re-read once per plane sweep: untiled, that reuse
// distance is three full planes (~1.5 MiB), which misses the private L2;
// the tiled variant sweeps y-blocks so the reuse distance shrinks to the
// block (~0.3 MiB) and fits. The traffic reduction from tiling — and the
// SMT cache-contention effects of §IV-E — therefore emerge from the cache
// simulation rather than being scripted.
func minighostConfig(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	lineBytes := uint64(p.LineBytes)
	pointsPerLine := p.LineBytes / 8
	gapPerOp := mgOpGapCycles[p.Name]
	if gapPerOp == 0 {
		gapPerOp = 24
	}
	window := mgWindow[p.Name]
	if window == 0 {
		window = 11
	}

	rowBytes := uint64(mgNX * 8)
	linesPerRow := int(rowBytes / lineBytes)
	planeBytes := rowBytes * mgNY
	planes := mgPlanes
	if scale < 1 {
		planes = int(float64(planes)*scale + 0.5)
		if planes < 6 {
			planes = 6
		}
	}

	// Co-resident hardware threads share the core's grid (the OpenMP
	// decomposition) and split it in y: private copies would quadruple the
	// cache pressure 4-way SMT sees and overstate the §IV-E contention.
	tileY := mgNY / threadsPerCore
	if v.Tiled {
		tileY = mgTileY
	}

	return sim.Config{
		Plat:           p,
		ThreadsPerCore: threadsPerCore,
		Window:         min(window, p.DemandWindow),
		NewGen: func(coreID, threadID int) cpu.Generator {
			inBase := uint64(coreID+1) << 34
			outBase := inBase + (1 << 32)
			addrOf := func(z, y, xl int) uint64 {
				return inBase + uint64(z)*planeBytes + uint64(y)*rowBytes + uint64(xl)*lineBytes
			}
			// Traversal: y-blocks (whole per-thread share when untiled) →
			// z → y within block → x lines → the 3 plane reads + 1 store.
			// SMT threads interleave blocks round-robin.
			yb, z, y, xl, k := threadID*tileY, 1, 0, 0, 0
			blockStep := threadsPerCore * tileY
			done := yb >= mgNY
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if done {
					return cpu.Op{}, false
				}
				var op cpu.Op
				if k < 3 {
					op = cpu.Op{
						Addr:      addrOf(z+k-1, yb+y, xl),
						Kind:      memsys.Load,
						GapCycles: gapPerOp,
					}
				} else {
					op = cpu.Op{
						Addr:      outBase + uint64(z)*planeBytes + uint64(yb+y)*rowBytes + uint64(xl)*lineBytes,
						Kind:      memsys.Store,
						GapCycles: gapPerOp,
						Work:      float64(pointsPerLine),
					}
				}
				k++
				if k == 4 {
					k = 0
					xl++
					if xl == linesPerRow {
						xl = 0
						y++
						ylim := tileY
						if yb+ylim > mgNY {
							ylim = mgNY - yb
						}
						if y >= ylim {
							y = 0
							z++
							if z > planes-2 {
								z = 1
								yb += blockStep
								if yb >= mgNY {
									done = true
								}
							}
						}
					}
				}
				return op, true
			})
		},
	}
}
