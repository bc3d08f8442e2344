package stream

import (
	"context"
	"fmt"

	"littleslaw/internal/engine"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
)

// ReplayPhase is one segment of a replayed workload: a node simulation
// whose steady-state bandwidth is emitted as a run of counter samples.
type ReplayPhase struct {
	// Label names the phase in diagnostics.
	Label string
	// Config is the node simulation to run for this phase.
	Config sim.Config
	// Samples is the number of counter samples the phase contributes
	// (default 16).
	Samples int
}

// ReplayResult pairs a phase with its simulation outcome.
type ReplayResult struct {
	Label  string
	Result *sim.Result
}

// ReplayOptions tunes Replay.
type ReplayOptions struct {
	// PeriodS is the sample spacing in seconds (default 1).
	PeriodS float64
	// Workers bounds the concurrent phase simulations (0 = GOMAXPROCS).
	// The emitted series is identical at any worker count: engine.Map
	// returns results in submission order.
	Workers int
	// SimRunner is the runner the phases run on (nil = one of the call's
	// own, which only dedups within the call).
	SimRunner *runner.Runner
}

// Replay runs every phase's simulation through the shared worker pool and
// flattens the results into a deterministic counter-sample series: each
// phase contributes Samples samples at its measured bandwidth and
// prefetched-read fraction. It is the bridge from the one-shot simulator
// to the streaming monitor — a recorded run becomes a replayable stream.
func Replay(ctx context.Context, phases []ReplayPhase, opts ReplayOptions) (*SliceSource, []ReplayResult, error) {
	if len(phases) == 0 {
		return nil, nil, fmt.Errorf("stream: no replay phases")
	}
	period := opts.PeriodS
	if period <= 0 {
		period = 1
	}
	sims := opts.SimRunner
	if sims == nil {
		sims = runner.New(0)
	}

	jobs := make([]func(context.Context) (*sim.Result, error), len(phases))
	for i, ph := range phases {
		cfg := ph.Config
		jobs[i] = func(ctx context.Context) (*sim.Result, error) {
			return sims.Run(ctx, cfg)
		}
	}
	results, err := engine.Map(ctx, engine.New(opts.Workers), jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: replaying phases: %w", err)
	}

	var samples []Sample
	outcomes := make([]ReplayResult, len(phases))
	t := 0.0
	for i, ph := range phases {
		res := results[i]
		outcomes[i] = ReplayResult{Label: ph.Label, Result: res}
		n := ph.Samples
		if n == 0 {
			n = 16
		}
		if n < 0 {
			return nil, nil, fmt.Errorf("stream: phase %q has negative sample count", ph.Label)
		}
		for k := 0; k < n; k++ {
			samples = append(samples, Sample{
				TS:                     t,
				BandwidthGBs:           res.TotalGBs,
				PrefetchedReadFraction: res.PrefetchedReadFraction,
			})
			t += period
		}
	}
	return NewSliceSource(samples), outcomes, nil
}
