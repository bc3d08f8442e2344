// Package autotune drives the paper's recipe end to end: the Figure-1
// loop of measure → compute MSHR occupancy → pick an optimization the
// recipe recommends → apply it → re-measure, repeated until the recipe has
// nothing left to recommend or nothing recommended helps. It automates
// exactly the manual process the paper's §IV case studies walk through.
package autotune

import (
	"context"
	"fmt"

	"littleslaw/internal/core"
	"littleslaw/internal/engine"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
)

// Step records one iteration of the loop.
type Step struct {
	// Tried is the optimization the recipe picked.
	Tried core.Optimization
	// Report is the metric's view of the state *before* applying it.
	Report *core.Report
	// Speedup is the measured throughput ratio of applying it.
	Speedup float64
	// Accepted reports whether the change was kept.
	Accepted bool
}

// Result is a completed tuning session.
type Result struct {
	Workload string
	Platform string
	Steps    []Step
	// Final state and its cumulative speedup over the base run.
	FinalVariant workloads.Variant
	FinalThreads int
	TotalSpeedup float64
	// FinalReport is the metric's view of the final state.
	FinalReport *core.Report
}

// Options tunes the loop.
type Options struct {
	// Scale is the per-run work scale (default 0.1).
	Scale float64
	// Cores simulated (0 = full node). Reduced nodes are faster but see
	// proportionally less memory contention.
	Cores int
	// AcceptThreshold is the minimum speedup to keep a change (default 1.03).
	AcceptThreshold float64
	// MaxSteps bounds the loop (default 8).
	MaxSteps int
	// UserIntuition enables the §IV-F fallback: when the recipe has
	// nothing left, try disabling compiler loop fusion on platforms with
	// weak store forwarding.
	UserIntuition bool
	// Workers bounds how many candidate variants are evaluated
	// concurrently. 0 means runtime.GOMAXPROCS(0); 1 forces the
	// historical serial loop. Any worker count yields the identical step
	// sequence: the recipe's candidate slate from the current state is
	// evaluated speculatively, then walked in recipe order — rejections
	// leave the state unchanged (so later speculative runs stay valid)
	// and the first acceptance discards the rest and re-gathers.
	Workers int
}

func (o *Options) normalize() {
	if o.Scale == 0 {
		o.Scale = 0.1
	}
	if o.AcceptThreshold == 0 {
		o.AcceptThreshold = 1.03
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 8
	}
}

// Tune runs the recipe loop for a workload on a platform.
func Tune(p *platform.Platform, profile *queueing.Curve, w workloads.Workload, opts Options) (*Result, error) {
	return TuneContext(context.Background(), p, profile, w, opts)
}

// candidate is one speculatively evaluable rung: the optimization the
// recipe would pick and the configuration it leads to.
type candidate struct {
	opt     core.Optimization
	variant workloads.Variant
	threads int
}

// gatherCandidates replays pickCandidate against a scratch tried-set to
// enumerate the exact sequence of optimizations the serial loop would try
// from the current state, assuming each is rejected (rejections leave the
// state — and therefore the recipe's report and capabilities — unchanged,
// which is what makes the slate valid to evaluate concurrently).
func gatherCandidates(rep *core.Report, caps core.Capabilities, v workloads.Variant, threads int,
	tried map[core.Optimization]bool, p *platform.Platform, opts Options) []candidate {

	scratch := make(map[core.Optimization]bool, len(tried))
	for k, ok := range tried {
		scratch[k] = ok
	}
	var out []candidate
	for {
		opt, nv, nt, ok := pickCandidate(rep, caps, v, threads, scratch, p, opts)
		if !ok {
			return out
		}
		scratch[opt] = true
		out = append(out, candidate{opt: opt, variant: nv, threads: nt})
	}
}

// TuneContext is Tune with cancellation and concurrent candidate
// evaluation across a bounded worker pool. The step sequence, acceptance
// decisions and final report are identical to the serial loop for any
// worker count.
func TuneContext(ctx context.Context, p *platform.Platform, profile *queueing.Curve, w workloads.Workload, opts Options) (*Result, error) {
	opts.normalize()
	if profile == nil {
		return nil, fmt.Errorf("autotune: nil profile")
	}
	pool := engine.New(opts.Workers)

	state := w.Variant()
	threads := 1
	run := func(ctx context.Context, v workloads.Variant, th int) (*sim.Result, error) {
		cfg := w.WithVariant(v).Config(p, th, opts.Scale)
		if opts.Cores != 0 {
			cfg.Cores = opts.Cores
		}
		return runner.Run(ctx, cfg)
	}

	cur, err := run(ctx, state, threads)
	if err != nil {
		return nil, err
	}
	baseThroughput := cur.Throughput

	res := &Result{Workload: w.Name(), Platform: p.Name, FinalVariant: state, FinalThreads: threads}
	tried := map[core.Optimization]bool{}

	for len(res.Steps) < opts.MaxSteps {
		rep, err := core.Analyze(p, profile, w.Measurement(cur))
		if err != nil {
			return nil, err
		}
		res.FinalReport = rep

		caps := w.WithVariant(state).Capabilities(p, threads)
		cands := gatherCandidates(rep, caps, state, threads, tried, p, opts)
		if len(cands) == 0 {
			break
		}
		if remaining := opts.MaxSteps - len(res.Steps); len(cands) > remaining {
			cands = cands[:remaining]
		}

		// Speculative batch: with multiple workers, evaluate the whole
		// slate up front (an acceptance wastes the tail, a speedup vs. the
		// common all-rejected walk); serially, evaluate lazily so the cost
		// matches the historical loop exactly.
		var runs []*sim.Result
		if pool.Workers() > 1 && len(cands) > 1 {
			jobs := make([]func(context.Context) (*sim.Result, error), len(cands))
			for i, c := range cands {
				c := c
				jobs[i] = func(ctx context.Context) (*sim.Result, error) {
					return run(ctx, c.variant, c.threads)
				}
			}
			runs, err = engine.Map(ctx, pool, jobs)
			if err != nil {
				return nil, err
			}
		}

		accepted := false
		for i, c := range cands {
			tried[c.opt] = true
			next := (*sim.Result)(nil)
			if runs != nil {
				next = runs[i]
			} else if next, err = run(ctx, c.variant, c.threads); err != nil {
				return nil, err
			}
			speedup := next.Throughput / cur.Throughput
			ok := speedup >= opts.AcceptThreshold
			res.Steps = append(res.Steps, Step{Tried: c.opt, Report: rep, Speedup: speedup, Accepted: ok})
			if ok {
				state, threads, cur = c.variant, c.threads, next
				res.FinalVariant, res.FinalThreads = state, threads
				accepted = true
				break
			}
		}
		if !accepted {
			// Every candidate from this state was rejected; the serial
			// loop's next iteration would find nothing new and stop.
			break
		}
	}

	if res.FinalReport == nil {
		rep, err := core.Analyze(p, profile, w.Measurement(cur))
		if err != nil {
			return nil, err
		}
		res.FinalReport = rep
	}
	res.TotalSpeedup = cur.Throughput / baseThroughput
	return res, nil
}

// pickCandidate chooses the next optimization per the recipe's priorities:
// recommended MLP-raisers first (vectorization before SMT before deeper
// SMT), then the L2-prefetch bottleneck shift, then traffic reducers, then
// (optionally) the §IV-F user-intuition fusion fallback.
func pickCandidate(rep *core.Report, caps core.Capabilities, v workloads.Variant, threads int,
	tried map[core.Optimization]bool, p *platform.Platform, opts Options) (core.Optimization, workloads.Variant, int, bool) {

	advice := core.Advise(rep, caps)
	order := []core.Optimization{
		core.Vectorize, core.SMT2, core.SoftwarePrefetchL2, core.SMT4, core.LoopTiling, core.LoopFusion,
	}
	for _, opt := range order {
		if tried[opt] {
			continue
		}
		if core.AdviceFor(advice, opt).Stance != core.Recommend {
			continue
		}
		switch opt {
		case core.Vectorize:
			if !v.Vectorized {
				nv := v
				nv.Vectorized = true
				return opt, nv, threads, true
			}
		case core.SMT2:
			if threads < 2 && p.SMTWays >= 2 {
				return opt, v, 2, true
			}
		case core.SMT4:
			if threads == 2 && p.SMTWays >= 4 {
				return opt, v, 4, true
			}
		case core.SoftwarePrefetchL2:
			if !v.SWPrefetchL2 {
				nv := v
				nv.SWPrefetchL2 = true
				return opt, nv, threads, true
			}
		case core.LoopTiling:
			if caps.Tileable && !v.Tiled {
				nv := v
				nv.Tiled = true
				return opt, nv, threads, true
			}
		case core.LoopFusion:
			// The recipe's fusion recommendation is about *applying*
			// fusion, which the compiler already did; nothing to rewrite.
		}
	}

	// §IV-F user intuition: beyond the recipe, try un-fusing on cores that
	// stall on store-to-load forwarding.
	if opts.UserIntuition && caps.Fusable && !v.NoFuse && p.WeakStoreForwarding && !tried[core.DisableFusion] {
		nv := v
		nv.NoFuse = true
		return core.DisableFusion, nv, threads, true
	}
	return 0, v, threads, false
}
