// Package streamtest holds the shared §III-D two-phase fixture: a
// memory-hot random-access routine next to a compute-light one, whose
// whole-program average misleads. The stream package's monitor tests and
// service's /v1/watch tests analyze the same application, so a change to
// the fixture moves both ends of the argument together.
package streamtest

import (
	"math/rand"

	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/sim"
	"littleslaw/internal/stream"
)

// Curve returns the SKL anchor profile the tests analyze against.
func Curve() *queueing.Curve {
	return queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 0.5, LatencyNs: 82}, {BandwidthGBs: 37.9, LatencyNs: 93},
		{BandwidthGBs: 92.9, LatencyNs: 117}, {BandwidthGBs: 106.9, LatencyNs: 145},
		{BandwidthGBs: 112, LatencyNs: 220},
	})
}

// PhaseConfig builds a small random-load phase with a given issue gap
// (larger gap = lighter memory phase) and per-thread demand window.
func PhaseConfig(p *platform.Platform, gap float64, window int) sim.Config {
	return sim.Config{
		Plat:   p,
		Cores:  8,
		Window: window,
		NewGen: func(coreID, threadID int) cpu.Generator {
			rng := rand.New(rand.NewSource(int64(coreID*31 + threadID)))
			n := 1500
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if n <= 0 {
					return cpu.Op{}, false
				}
				n--
				return cpu.Op{
					Addr:      uint64(coreID+1)<<34 + (rng.Uint64()&(1<<28-1))&^63,
					Kind:      memsys.Load,
					GapCycles: gap,
					Work:      1,
				}, true
			})
		},
	}
}

// HeavyGap and LightGap are the issue gaps of the fixture's two phases:
// back-to-back random loads versus one load every ~900 cycles.
const (
	HeavyGap = 1.0
	LightGap = 900.0
)

// TwoPhaseReplay returns the canonical two-phase replay: samplesPerPhase
// samples of the hot sweep followed by samplesPerPhase of the light
// solver, on platform p.
func TwoPhaseReplay(p *platform.Platform, samplesPerPhase int) []stream.ReplayPhase {
	return []stream.ReplayPhase{
		{Label: "hot_sweep", Config: PhaseConfig(p, HeavyGap, 12), Samples: samplesPerPhase},
		{Label: "light_solver", Config: PhaseConfig(p, LightGap, 2), Samples: samplesPerPhase},
	}
}
