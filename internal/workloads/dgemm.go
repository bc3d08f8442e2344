package workloads

import (
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

const (
	// dgemmN is the (scaled) matrix dimension; the B panel is N²·8 B =
	// 2 MiB — beyond every private L2, so the naive sweep misses, while a
	// tileB-wide tile panel (256 KiB) fits and gets reused.
	dgemmN    = 512
	dgemmOps  = 30000 // line-events per thread at scale 1
	tileB     = 32    // cache-tile edge
	unrollReg = 4     // register-block rows held by unroll-and-jam
)

// dgemmConfig models DGEMM, the §III-C worked example beyond Table II:
// dense matrix multiply, the workload whose optimization ladder runs
// through *both* traffic-reducing transforms — cache tiling, then register
// tiling (unroll-and-jam) — until the routine becomes FLOP-bound and the
// MSHRQ metric correctly reports that no memory optimization is left
// (§III-D's "GEMM becomes FLOP bound after prefetching, cache and register
// tiling").
//
// The model follows the classic traffic analysis: a naive i-j-k loop
// re-reads a B column line per multiply-add group; cache tiling reuses a B
// tile from the L2, cutting traffic by the tile factor; unroll-and-jam
// additionally holds a register block so the per-line arithmetic amortizes
// further and the loop approaches the core's FLOP ceiling.
func dgemmConfig(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	ops := scaleOps(dgemmOps, scale)
	lineBytes := uint64(p.LineBytes)
	elemsPerLine := p.LineBytes / 8
	// Several passes over the tiled panel must fit in the op budget or
	// the reuse the tiling creates would never be observed.
	if minOps := 8 * tileB * dgemmN / elemsPerLine; ops < minOps {
		ops = minOps
	}

	// Arithmetic per touched B line: each B element feeds one FMA per
	// C-row in flight. Naive code keeps 1 row; unroll-and-jam holds
	// unrollReg rows in registers; vector width amortizes the issue cost.
	rowsInFlight := 1
	if v.UnrollJam {
		rowsInFlight = unrollReg
	}
	flopsPerLine := float64(2 * elemsPerLine * rowsInFlight)
	// Issue cost: FMA-throughput-limited at ~2 per cycle per lane group.
	gap := flopsPerLine / (2 * float64(p.VectorLanes64))
	if gap < 1 {
		gap = 1
	}

	// Cache behaviour: naive sweeps the full B panel per C row (reuse
	// distance ≈ N²·8 B, far beyond L2), so every B line misses. Tiling
	// walks tileB-wide panels that fit the L2 and get reused.
	panelLines := int(uint64(dgemmN) * uint64(dgemmN) / uint64(elemsPerLine)) // full B in lines
	if v.Tiled {
		panelLines = tileB * dgemmN / elemsPerLine // one B tile panel
	}

	return sim.Config{
		Plat:           p,
		ThreadsPerCore: threadsPerCore,
		Window:         min(8, p.DemandWindow),
		NewGen: func(coreID, threadID int) cpu.Generator {
			bBase := uint64(coreID*8+threadID+1) << 34
			aBase := bBase + (1 << 32)
			emitted := 0
			pos := 0
			aPos := uint64(0)
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if emitted >= ops {
					return cpu.Op{}, false
				}
				emitted++
				// Walk the (possibly tiled) B panel cyclically; tiled
				// panels fit the L2 and hit after the first pass.
				addr := bBase + uint64(pos)*lineBytes
				pos++
				if pos >= panelLines {
					pos = 0
				}
				// The A row stream trickles alongside (one line per
				// elemsPerLine B lines — A is reused across the row).
				if emitted%(elemsPerLine*rowsInFlight) == 0 {
					aPos += lineBytes
					return cpu.Op{Addr: aBase + aPos, Kind: memsys.Load, GapCycles: gap, Work: flopsPerLine}, true
				}
				return cpu.Op{Addr: addr, Kind: memsys.Load, GapCycles: gap, Work: flopsPerLine}, true
			})
		},
	}
}
