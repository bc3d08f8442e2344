// Package littleslaw reproduces "Performance Analysis and Optimization
// with Little's Law" (Mehta, ISPASS 2022) as a library: a portable
// performance metric — the memory-level parallelism of a routine,
// interpreted as average MSHR-queue occupancy — computed from observed
// bandwidth and a once-per-platform bandwidth→latency profile, plus the
// optimization recipe built on it.
//
// The package is a facade over the internal implementation:
//
//   - Platforms: the paper's three machines (SKL, KNL, A64FX) as simulated
//     nodes (internal/platform, internal/memsys);
//   - Characterize: the X-Mem-style profile measurement (internal/xmem);
//   - Workloads: the six Table-II proxy applications (internal/workloads);
//   - Run: full-node simulation of a workload variant (internal/sim);
//   - Analyze / Advise / Explain: the metric and the Figure-1 recipe
//     (internal/core);
//   - Tables / Figure2: regeneration of the paper's evaluation artifacts
//     (internal/experiments).
//
// Quickstart:
//
//	p, _ := littleslaw.Platform("KNL")
//	profile, _ := littleslaw.Characterize(p)
//	w, _ := littleslaw.Workload("ISx")
//	res, _ := littleslaw.Run(w, p, 1, 0.3)
//	report, _ := littleslaw.Analyze(p, profile, littleslaw.MeasurementFrom(w, res))
//	fmt.Println(littleslaw.Explain(report))
//	for _, a := range littleslaw.Advise(report, w.Capabilities(p, 1)) {
//		fmt.Println(a.Opt, a.Stance, a.Reason)
//	}
package littleslaw

import (
	"context"

	"littleslaw/internal/access"
	"littleslaw/internal/autotune"
	"littleslaw/internal/core"
	"littleslaw/internal/cpu"
	"littleslaw/internal/experiments"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/roofline"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
	"littleslaw/internal/xmem"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// PlatformSpec describes one of the paper's machines.
	PlatformSpec = platform.Platform
	// Curve is a bandwidth→latency profile.
	Curve = queueing.Curve
	// WorkloadSpec is one Table-II application routine.
	WorkloadSpec = workloads.Workload
	// Variant selects a workload's optimization state.
	Variant = workloads.Variant
	// RunResult is a full-node simulation measurement.
	RunResult = sim.Result
	// Measurement is the analyst's input to the metric.
	Measurement = core.Measurement
	// Report is the Little's-Law MLP report.
	Report = core.Report
	// Advice is one recipe verdict.
	Advice = core.Advice
	// Capabilities describes what a routine/platform allows.
	Capabilities = core.Capabilities
	// RooflineModel is the Figure-2 chart.
	RooflineModel = roofline.Model
)

// Recipe stances.
const (
	Recommend  = core.Recommend
	Neutral    = core.Neutral
	Discourage = core.Discourage
)

// Platform returns one of the paper's machines: "SKL", "KNL" or "A64FX".
func Platform(name string) (*PlatformSpec, error) { return platform.ByName(name) }

// Platforms returns all three machines in Table III order.
func Platforms() []*PlatformSpec { return platform.All() }

// Workload returns one of the six Table-II applications by name.
func Workload(name string) (WorkloadSpec, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, errUnknownWorkload(name)
	}
	return w, nil
}

// Workloads returns all six applications in Table II order.
func Workloads() []WorkloadSpec { return workloads.All() }

// Characterize measures (and process-caches) the platform's
// bandwidth→latency profile — the paper's once-per-processor artifact.
func Characterize(p *PlatformSpec) (*Curve, error) { return xmem.ProfileFor(p) }

// CharacterizeContext is Characterize with cancellation; the sweep's
// operating points fan out across the default worker pool.
func CharacterizeContext(ctx context.Context, p *PlatformSpec) (*Curve, error) {
	return xmem.ProfileForContext(ctx, p)
}

// Run simulates a workload on the full node with the given SMT depth.
// scale multiplies per-thread work (1.0 = benchmark size). All runs go
// through the shared runner spine: identical configurations are
// deduplicated and served from its cache.
func Run(w WorkloadSpec, p *PlatformSpec, threadsPerCore int, scale float64) (*RunResult, error) {
	return runner.Run(context.Background(), w.Config(p, threadsPerCore, scale))
}

// RunContext is Run with cooperative cancellation: the simulation's event
// loop polls ctx and aborts early when it is cancelled or times out.
func RunContext(ctx context.Context, w WorkloadSpec, p *PlatformSpec, threadsPerCore int, scale float64) (*RunResult, error) {
	return runner.Run(ctx, w.Config(p, threadsPerCore, scale))
}

// MeasurementFrom converts a simulated run into the metric's input, the
// way CrayPat-style counters would be read on real hardware.
func MeasurementFrom(w WorkloadSpec, res *RunResult) Measurement { return w.Measurement(res) }

// Analyze computes the Little's-Law MLP report (Equation 2 + the L1/L2
// MSHR classification).
func Analyze(p *PlatformSpec, profile *Curve, m Measurement) (*Report, error) {
	return core.Analyze(p, profile, m)
}

// Advise runs the Figure-1 recipe over a report.
func Advise(r *Report, caps Capabilities) []Advice { return core.Advise(r, caps) }

// Explain narrates the recipe's decision path for a report.
func Explain(r *Report) string { return core.Explain(r) }

// Roofline builds the Figure-2 roofline (bandwidth roofs plus the MSHR
// ceilings) for a platform from its measured profile.
func Roofline(p *PlatformSpec, profile *Curve) (*RooflineModel, error) {
	return roofline.New(p, profile)
}

// TableIDs lists the regenerable paper tables ("IV".."IX") in paper order.
func TableIDs() []string { return experiments.TableIDs() }

// RegenerateTable reproduces one of the paper's simulated tables
// ("IV".."IX") at the given work scale (1.0 = full size).
func RegenerateTable(id string, scale float64) (*experiments.Table, error) {
	return experiments.NewRunner(experiments.Options{Scale: scale}).Table(id)
}

type errUnknownWorkload string

func (e errUnknownWorkload) Error() string {
	return "littleslaw: unknown workload \"" + string(e) + "\" (want ISx, HPCG, PENNANT, CoMD, MiniGhost or SNAP)"
}

// TuneOptions re-exports the autotune loop's options.
type TuneOptions = autotune.Options

// TuneResult re-exports the autotune loop's result.
type TuneResult = autotune.Result

// Tune runs the Figure-1 recipe loop (measure → advise → apply →
// re-measure) to a fixed point for a workload on a platform.
func Tune(p *PlatformSpec, profile *Curve, w WorkloadSpec, opts TuneOptions) (*TuneResult, error) {
	return autotune.Tune(p, profile, w, opts)
}

// TuneContext is Tune with cancellation and concurrent candidate
// evaluation (opts.Workers); the step sequence is identical to Tune for
// any worker count.
func TuneContext(ctx context.Context, p *PlatformSpec, profile *Curve, w WorkloadSpec, opts TuneOptions) (*TuneResult, error) {
	return autotune.TuneContext(ctx, p, profile, w, opts)
}

// PatternProfile re-exports the access classifier's result.
type PatternProfile = access.Profile

// ClassifyAccesses runs the single-pass pattern classifier over the first
// maxOps operations of a generator, returning the random-vs-streaming
// classification the recipe consumes (§III-D).
func ClassifyAccesses(lineBytes int, gen cpu.Generator, maxOps int) (PatternProfile, error) {
	c, err := access.NewClassifier(lineBytes)
	if err != nil {
		return PatternProfile{}, err
	}
	for i := 0; maxOps <= 0 || i < maxOps; i++ {
		op, ok := gen.Next()
		if !ok {
			break
		}
		if op.Kind == memsys.Load || op.Kind == memsys.Store {
			c.Observe(op.Addr)
		}
	}
	return c.Profile(), nil
}
