package workloads

import (
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

const (
	// snapChunkBytes is one cell's angular batch: nang=48 doubles.
	snapChunkBytes = 48 * 8
	// snapArena is the angular-flux footprint per thread.
	snapArena = 1 << 27
	snapOps   = 3500 // cells per thread at scale 1
)

// snapCellGapCycles is the calibrated per-cell arithmetic of the sweep
// (the routine is computation-heavy: many temporaries, cache reuse).
var snapCellGapCycles = map[string]float64{
	"SKL":   850,
	"KNL":   920,
	"A64FX": 755,
}

// snapFusionPenalty is the §IV-F pathology: the compiler-fused loop's
// store-to-load forwarding stalls on A64FX (~4× on the hot loop, ~25% on
// the whole routine).
const snapFusionPenalty = 1.25

// snapConfig models the dim3_sweep routine of the discrete-ordinates
// transport proxy (nx=64, ny=16, nz=24, nang=48, ng=54): a wavefront sweep
// whose innermost loops run over just 48 angles — short bursts of 384 bytes
// read from the angular-flux arrays of each cell, scattered by the
// wavefront ordering. Streams that short never confirm in the hardware
// prefetcher's stream table, which is the opening for user-directed
// software prefetching (§IV-F). On A64FX the compiler's automatic loop
// fusion introduces store-to-load forwarding stalls; the NoFuse variant
// removes them.
func snapConfig(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	cells := scaleOps(snapOps, scale)
	gap := snapCellGapCycles[p.Name]
	if gap == 0 {
		gap = 600
	}
	if p.WeakStoreForwarding && !v.NoFuse {
		gap *= snapFusionPenalty
	}
	lineBytes := uint64(p.LineBytes)
	linesPerChunk := int((snapChunkBytes + int(lineBytes) - 1) / int(lineBytes))
	dist := v.PrefetchDistance
	if dist == 0 {
		dist = 2
	}

	// SNAP's SMT threads contend the sweep's shared temporaries nearly
	// serially (Table IX: 2-way HT pays ~1.1×, 4-way ~1.0×).
	smtShare := map[string]float64{"SKL": 0.95, "KNL": 0.875}[p.Name]

	return sim.Config{
		Plat:           p,
		ThreadsPerCore: threadsPerCore,
		Window:         min(6, p.DemandWindow),
		SMTShare:       smtShare,
		SMTExponent:    1,
		NewGen: func(coreID, threadID int) cpu.Generator {
			rng := newRNG("snap", coreID, threadID)
			base := uint64(coreID*8+threadID+1) << 34
			// Wavefront ordering: cells visit scattered chunk bases; keep a
			// lookahead ring so the prefetch variant can cover upcoming
			// cells' flux chunks.
			ring := make([]uint64, dist)
			for i := range ring {
				ring[i] = base + alignLine(rng.Uint64()%snapArena, p)
			}
			pos := 0
			cell := 0
			line := 0
			prefLine := -1
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if cell >= cells {
					return cpu.Op{}, false
				}
				// Software prefetch of an upcoming cell's input chunk,
				// issued at the start of the current cell.
				if v.SWPrefetchL2 && prefLine >= 0 {
					a := ring[(pos+dist-1)%dist] + uint64(prefLine)*lineBytes
					prefLine--
					return cpu.Op{Addr: a, Kind: memsys.PrefetchL2, GapCycles: 1}, true
				}
				chunk := ring[pos]
				if line < linesPerChunk {
					// Input burst: the angular flux loads issue back to back.
					a := chunk + uint64(line)*lineBytes
					line++
					return cpu.Op{Addr: a, Kind: memsys.Load, GapCycles: 2}, true
				}
				// Output burst: the first store carries the cell's compute
				// and the input dependency — the sweep arithmetic cannot
				// begin until the angular fluxes have arrived. Stores drain
				// through the store buffer.
				computeGap := 2.0
				barrier := false
				if line == linesPerChunk {
					computeGap = gap
					barrier = true
				}
				a := chunk + (1 << 30) + uint64(line-linesPerChunk)*lineBytes
				line++
				if line >= 2*linesPerChunk {
					line = 0
					cell++
					ring[pos] = base + alignLine(rng.Uint64()%snapArena, p)
					if v.SWPrefetchL2 {
						prefLine = linesPerChunk - 1
					}
					pos = (pos + 1) % dist
					return cpu.Op{Addr: a, Kind: memsys.Store, GapCycles: computeGap, Work: 1, Async: true, Barrier: barrier}, true
				}
				return cpu.Op{Addr: a, Kind: memsys.Store, GapCycles: computeGap, Async: true, Barrier: barrier}, true
			})
		},
	}
}
