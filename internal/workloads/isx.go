package workloads

import (
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

const (
	// isxTableBytes is the randomly-accessed footprint per hardware
	// thread — scaled down from the ~100 MB/PE of the paper's problem
	// size but far beyond any cache, which is all the pattern requires.
	isxTableBytes = 1 << 27
	isxBaseOps    = 20000
)

// isxIterGapCycles is the per-key loop body cost (index arithmetic plus
// the bucket update) when not stalled on MSHRs, calibrated against the
// Table IV post-prefetch bandwidths, where compute pacing is exposed.
// A64FX's scalar loop takes more cycles per key.
var isxIterGapCycles = map[string]float64{
	"SKL":   16,
	"KNL":   25,
	"A64FX": 28,
}

// isxWindow is the independent-miss window of the counting loop: compiler
// unrolling exposes about ten independent table reads in flight;
// vectorization (8-lane gathers) widens it somewhat. Calibrated against
// the Table IV occupancy ladder (10.23 → 10.66 → 11.6 on KNL).
func isxWindow(v Variant, p *platform.Platform) int {
	win := 10
	if v.Vectorized {
		win = 11
	}
	return min(win, p.DemandWindow)
}

// isxConfig models the count_local_keys routine of the ISx scalable integer
// sort (Table II: 25,165,824 keys per PE): a sequential sweep over the key
// array combined with one random-line table access per key over a footprint
// far larger than the caches — the random-access pattern that pins the L1
// MSHR file on every platform (Table IV). The paper's bandwidth/occupancy
// pairs imply the traffic is read-dominated, so the table access is
// modelled as a load.
//
// The optimization ladder matches §IV-A: vectorization widens the
// independent-miss window slightly; L2 software prefetching issues the
// upcoming random lines into the L2 MSHR file ahead of the demand accesses,
// shifting the bottleneck from the small L1 file to the larger L2 one and
// converting MSHR-stall pacing into pure compute pacing.
func isxConfig(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	ops := scaleOps(isxBaseOps, scale)
	keysPerLine := p.LineBytes / 4 // 4-byte keys stream
	gapIter := isxIterGapCycles[p.Name]
	if gapIter == 0 {
		gapIter = 16
	}
	if v.Vectorized {
		gapIter *= 0.94
	}
	dist := v.PrefetchDistance
	if dist == 0 {
		dist = 24
	}

	prefKind := memsys.PrefetchL2
	swPref := v.SWPrefetchL2
	if v.SWPrefetchL1 {
		prefKind = memsys.PrefetchL1
		swPref = true
	}

	return sim.Config{
		Plat:           p,
		ThreadsPerCore: threadsPerCore,
		Window:         isxWindow(v, p),
		NewGen: func(coreID, threadID int) cpu.Generator {
			rng := newRNG("isx", coreID, threadID)
			// Private arenas: the streamed key array and the randomly
			// accessed table, disjoint per hardware thread as in the
			// paper's MPI decomposition.
			keyBase := uint64(coreID*8+threadID+1) << 34
			tabBase := keyBase + (1 << 32)
			// Lookahead ring of upcoming random targets, so the prefetch
			// variant fetches exactly the lines demand will touch.
			ring := make([]uint64, dist)
			for i := range ring {
				ring[i] = tabBase + alignLine(rng.Uint64()%isxTableBytes, p)
			}
			pos := 0
			emitted := 0
			keyCount := 0
			prefAddr := uint64(0)
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if emitted >= ops {
					return cpu.Op{}, false
				}
				// The prefetch variant splits the loop body between the
				// prefetch issue and the demand access.
				if swPref && prefAddr != 0 {
					a := prefAddr
					prefAddr = 0
					return cpu.Op{
						Addr:      a,
						Kind:      prefKind,
						GapCycles: gapIter / 2,
					}, true
				}
				if keyCount%keysPerLine == 0 && keyCount > 0 {
					keyCount++
					return cpu.Op{
						Addr:      keyBase + uint64(keyCount/keysPerLine)*uint64(p.LineBytes),
						Kind:      memsys.Load,
						GapCycles: 2,
					}, true
				}
				keyCount++
				emitted++
				target := ring[pos]
				// Refill the slot with the key dist iterations ahead; the
				// prefetch variant fetches it into L2 now.
				ring[pos] = tabBase + alignLine(rng.Uint64()%isxTableBytes, p)
				if swPref {
					prefAddr = ring[pos]
				}
				pos = (pos + 1) % dist
				gap := gapIter
				if swPref {
					gap = gapIter / 2
				}
				return cpu.Op{
					Addr:      target,
					Kind:      memsys.Load,
					GapCycles: gap,
					Work:      1,
				}, true
			})
		},
	}
}
