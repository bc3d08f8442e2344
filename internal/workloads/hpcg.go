package workloads

import (
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

const (
	// hpcgXBytes is the x-vector footprint per rank (40³ × 8 B in the
	// paper; sized to sit comfortably inside every platform's L2 so the
	// gathers mostly hit, as they do in the real code).
	hpcgXBytes = 256 << 10
	hpcgOps    = 24000
)

// hpcgScalarGap and hpcgVectGap are the calibrated SpMV arithmetic cost in
// cycles per 64 bytes of matrix values (scaled by line size), matching the
// Table V base and vectorized bandwidths. A64FX's scalar indexed loop runs
// leaner per byte; its SVE gathers gain more.
// The HBM3E entries model the §IV-G hypothetical: an A64FX-class core
// with enough SpMV throughput to press its L2 MSHR file against a
// 2.4 TB/s memory.
var (
	hpcgScalarGap = map[string]float64{"SKL": 44, "KNL": 44, "A64FX": 31, "HBM3E": 8}
	hpcgVectGap   = map[string]float64{"SKL": 36.6, "KNL": 36.6, "A64FX": 20, "HBM3E": 5}
)

// hpcgConfig models the ComputeSPMV_ref routine (sparse matrix–vector
// multiply, 40³ local domain): long unit-stride streams over the matrix
// values and column indices — ideal hardware-prefetcher food, so the L2
// MSHR file is the binding structure (Table V) — plus gathers into the x
// vector, whose ~512 KiB per-rank footprint mostly lives in the L2, and a
// streamed y store. Vectorization (AVX-512/SVE gather support, §IV-B)
// speeds the per-row arithmetic.
func hpcgConfig(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	ops := scaleOps(hpcgOps, scale)
	lineBytes := uint64(p.LineBytes)

	// Per matrix-line iteration: one vals-line load, an indices-line load
	// every other iteration (4-byte indices, half the volume), an x gather
	// with stencil locality, and a y-store line every 8 iterations.
	gaps := hpcgScalarGap
	if v.Vectorized {
		gaps = hpcgVectGap
	}
	gap := gaps[p.Name]
	if gap == 0 {
		gap = 44
	}
	gap *= float64(p.LineBytes) / 64

	return sim.Config{
		Plat:           p,
		ThreadsPerCore: threadsPerCore,
		Window:         min(8, p.DemandWindow),
		NewGen: func(coreID, threadID int) cpu.Generator {
			rng := newRNG("hpcg", coreID, threadID)
			base := uint64(coreID*8+threadID+1) << 34
			valsNext := base
			idxNext := base + (1 << 32)
			yNext := base + (2 << 32)
			xBase := base + (3 << 32)
			iter := 0
			emitted := 0
			phase := 0
			rowPos := uint64(0)
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if emitted >= ops {
					return cpu.Op{}, false
				}
				switch phase {
				case 0: // matrix values stream — the dominant traffic
					phase = 1
					iter++
					emitted++
					a := valsNext
					valsNext += lineBytes
					return cpu.Op{Addr: a, Kind: memsys.Load, GapCycles: gap, Work: 1}, true
				case 1: // column indices stream, half the byte volume
					phase = 2
					if iter%2 == 0 {
						a := idxNext
						idxNext += lineBytes
						return cpu.Op{Addr: a, Kind: memsys.Load, GapCycles: 2}, true
					}
					fallthrough
				case 2: // x gather: stencil locality inside the 512 KiB vector
					phase = 3
					rowPos = (rowPos + 8) % hpcgXBytes
					off := (rowPos + uint64(rng.Intn(2048))) % hpcgXBytes
					return cpu.Op{Addr: xBase + alignLine(off, p), Kind: memsys.Load, GapCycles: 2}, true
				default: // y store line every 8 iterations (store buffer)
					phase = 0
					if iter%8 == 0 {
						a := yNext
						yNext += lineBytes
						return cpu.Op{Addr: a, Kind: memsys.Store, GapCycles: 2, Async: true}, true
					}
					return cpu.Op{Addr: xBase + alignLine(rowPos, p), Kind: memsys.Load, GapCycles: 1}, true
				}
			})
		},
	}
}
