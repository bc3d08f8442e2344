// Package experiments regenerates the paper's evaluation artifacts:
// Tables IV–IX (one optimization ladder per application per platform),
// Figure 2 (the MSHR-ceiling roofline), and the Section I/II critiques.
//
// Each table row is produced the way the paper produced it: a full-node
// simulated run of the routine variant, bandwidth read back through the
// platform's counter model, loaded latency looked up in the once-measured
// X-Mem profile, occupancy from Equation 2 — plus, for validation, the
// simulator's true MSHR occupancy and the measured speedup of the next
// optimization on the ladder.
package experiments

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
	"littleslaw/internal/xmem"
)

// Step is one rung of an optimization ladder: a workload variant run with
// a given SMT depth, and the optimization the paper applies next.
type Step struct {
	Variant workloads.Variant
	Threads int
	// NextOpt is the paper's next optimization (empty on final rows).
	NextOpt core.Optimization
	// NextVariant/NextThreads define the configuration NextOpt leads to.
	NextVariant workloads.Variant
	NextThreads int
	// Final marks rows with no further optimization ("-" in the tables).
	Final bool
	// PaperBW / PaperOcc / PaperSpeedup echo the published values for
	// side-by-side reporting (0 when the paper has none).
	PaperBW      float64
	PaperOcc     float64
	PaperSpeedup float64
}

// Row is one generated table row.
type Row struct {
	Platform string
	Source   string
	Threads  int

	BWGBs   float64 // observed bandwidth (reads + writebacks)
	PeakPct float64 // of theoretical peak
	LatNs   float64 // loaded latency from the X-Mem profile
	Occ     float64 // n_avg via Equation 2

	TrueL1Occ float64 // simulator ground truth
	TrueL2Occ float64

	NextOpt string
	Stance  core.Stance // the recipe's verdict on NextOpt
	Speedup float64     // measured throughput ratio of applying NextOpt

	PaperBW      float64
	PaperOcc     float64
	PaperSpeedup float64
}

// Table is a regenerated paper table.
type Table struct {
	ID       string // "IV" … "IX"
	Workload string
	Routine  string
	Rows     []Row
}

// Options configures a regeneration run.
type Options struct {
	// Scale multiplies per-thread work (1.0 = full benchmark size).
	Scale float64
	// Platforms restricts the run (nil = all three).
	Platforms []string
	// ProfileFor supplies the bandwidth→latency curve per platform;
	// nil means the X-Mem characterization (the honest pipeline), run once
	// per platform by each Runner. It is called once per platform per table
	// call, possibly concurrently, so a source that is not free keeps its
	// own results.
	ProfileFor func(*platform.Platform) (*queueing.Curve, error)
	// SimRunner is the runner every simulation runs on: it dedups a row
	// and its successor, and the tables of one call. nil means
	// runner.Default().
	SimRunner *runner.Runner
	// Workers bounds how many simulations run concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 forces serial execution. Table output is
	// byte-identical for any worker count.
	Workers int
}

func (o *Options) normalize() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Platforms) == 0 {
		o.Platforms = []string{"SKL", "KNL", "A64FX"}
	}
	if o.SimRunner == nil {
		o.SimRunner = runner.Default()
	}
}

// tableSpecs defines the paper's ladders, in the tables' row order.
var tableSpecs = map[string]struct {
	id       string
	workload string
	steps    map[string][]Step
}{
	"IV": {id: "IV", workload: "ISx", steps: isxSteps()},
	"V":  {id: "V", workload: "HPCG", steps: hpcgSteps()},
	"VI": {id: "VI", workload: "PENNANT", steps: pennantSteps()},
	"VII": {id: "VII", workload: "CoMD",
		steps: comdSteps()},
	"VIII": {id: "VIII", workload: "MiniGhost", steps: minighostSteps()},
	"IX":   {id: "IX", workload: "SNAP", steps: snapSteps()},
}

// TableIDs lists the regenerable tables in paper order.
func TableIDs() []string { return []string{"IV", "V", "VI", "VII", "VIII", "IX"} }

func isxSteps() map[string][]Step {
	base := workloads.Variant{}
	vect := workloads.Variant{Vectorized: true}
	vectPref := workloads.Variant{Vectorized: true, SWPrefetchL2: true}
	pref := workloads.Variant{SWPrefetchL2: true}
	return map[string][]Step{
		"SKL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 106.9, PaperOcc: 10.1, PaperSpeedup: 1.0},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 107.1, PaperOcc: 10.1, PaperSpeedup: 1.0},
		},
		"KNL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 233, PaperOcc: 10.23, PaperSpeedup: 1.02},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 240, PaperOcc: 10.66, PaperSpeedup: 1.04},
			{Variant: vect, Threads: 2, NextOpt: core.SMT4, NextVariant: vect, NextThreads: 4, PaperBW: 253, PaperOcc: 11.6, PaperSpeedup: 0.98},
			{Variant: vect, Threads: 2, NextOpt: core.SoftwarePrefetchL2, NextVariant: vectPref, NextThreads: 2, PaperBW: 253, PaperOcc: 11.6, PaperSpeedup: 1.4},
			{Variant: vectPref, Threads: 2, Final: true, PaperBW: 344, PaperOcc: 20},
		},
		"A64FX": {
			{Variant: base, Threads: 1, NextOpt: core.SoftwarePrefetchL2, NextVariant: pref, NextThreads: 1, PaperBW: 649, PaperOcc: 9.92, PaperSpeedup: 1.3},
			{Variant: pref, Threads: 1, Final: true, PaperBW: 788, PaperOcc: 17.95},
		},
	}
}

func hpcgSteps() map[string][]Step {
	base := workloads.Variant{}
	vect := workloads.Variant{Vectorized: true}
	return map[string][]Step{
		"SKL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 109.9, PaperOcc: 12.6, PaperSpeedup: 1.0},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 108, PaperOcc: 12.6, PaperSpeedup: 0.98},
		},
		"KNL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 205, PaperOcc: 8.95, PaperSpeedup: 1.15},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 235, PaperOcc: 10.38, PaperSpeedup: 1.26},
			{Variant: vect, Threads: 2, NextOpt: core.SMT4, NextVariant: vect, NextThreads: 4, PaperBW: 296, PaperOcc: 15.1, PaperSpeedup: 1.03},
		},
		"A64FX": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 271, PaperOcc: 3.44, PaperSpeedup: 1.7},
			{Variant: vect, Threads: 1, Final: true, PaperBW: 418, PaperOcc: 5.62},
		},
	}
}

func pennantSteps() map[string][]Step {
	base := workloads.Variant{}
	vect := workloads.Variant{Vectorized: true}
	return map[string][]Step{
		"SKL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 37.9, PaperOcc: 2.29, PaperSpeedup: 2.0},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 46.8, PaperOcc: 2.89, PaperSpeedup: 1.4},
			{Variant: vect, Threads: 2, Final: true, PaperBW: 58.5, PaperOcc: 3.73},
		},
		"KNL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 78.2, PaperOcc: 3.49, PaperSpeedup: 5.76},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 130.6, PaperOcc: 5.96, PaperSpeedup: 1.17},
			{Variant: vect, Threads: 2, NextOpt: core.SMT4, NextVariant: vect, NextThreads: 4, PaperBW: 233.6, PaperOcc: 11.34, PaperSpeedup: 1.0},
		},
		"A64FX": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 69.3, PaperOcc: 0.81, PaperSpeedup: 3.83},
			{Variant: vect, Threads: 1, Final: true, PaperBW: 102, PaperOcc: 1.21},
		},
	}
}

func comdSteps() map[string][]Step {
	base := workloads.Variant{}
	vect := workloads.Variant{Vectorized: true}
	return map[string][]Step{
		"SKL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 3.19, PaperOcc: 0.17, PaperSpeedup: 1.4},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 4.56, PaperOcc: 0.29, PaperSpeedup: 1.22},
			{Variant: vect, Threads: 2, Final: true, PaperBW: 7.8, PaperOcc: 0.41},
		},
		"KNL": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 26.88, PaperOcc: 1.17, PaperSpeedup: 1.35},
			{Variant: vect, Threads: 1, NextOpt: core.SMT2, NextVariant: vect, NextThreads: 2, PaperBW: 35.39, PaperOcc: 1.55, PaperSpeedup: 1.52},
			{Variant: vect, Threads: 2, NextOpt: core.SMT4, NextVariant: vect, NextThreads: 4, PaperBW: 82.82, PaperOcc: 3.76, PaperSpeedup: 1.25},
			{Variant: vect, Threads: 4, Final: true, PaperBW: 141, PaperOcc: 6.54},
		},
		"A64FX": {
			{Variant: base, Threads: 1, NextOpt: core.Vectorize, NextVariant: vect, NextThreads: 1, PaperBW: 10.75, PaperOcc: 0.12, PaperSpeedup: 1.24},
			{Variant: vect, Threads: 1, Final: true, PaperBW: 13.44, PaperOcc: 0.16},
		},
	}
}

func minighostSteps() map[string][]Step {
	base := workloads.Variant{}
	tiled := workloads.Variant{Tiled: true}
	return map[string][]Step{
		"SKL": {
			{Variant: base, Threads: 1, NextOpt: core.LoopTiling, NextVariant: tiled, NextThreads: 1, PaperBW: 92.93, PaperOcc: 7.07, PaperSpeedup: 1.14},
			{Variant: tiled, Threads: 1, NextOpt: core.SMT2, NextVariant: tiled, NextThreads: 2, PaperBW: 107.14, PaperOcc: 10.32, PaperSpeedup: 1.02},
		},
		"KNL": {
			{Variant: base, Threads: 1, NextOpt: core.LoopTiling, NextVariant: tiled, NextThreads: 1, PaperBW: 232.96, PaperOcc: 11.26, PaperSpeedup: 1.47},
			{Variant: tiled, Threads: 1, NextOpt: core.SMT2, NextVariant: tiled, NextThreads: 2, PaperBW: 260.8, PaperOcc: 12.79, PaperSpeedup: 1.0},
			{Variant: tiled, Threads: 2, NextOpt: core.SMT4, NextVariant: tiled, NextThreads: 4, PaperBW: 274.56, PaperOcc: 13.74, PaperSpeedup: 1.0},
		},
		"A64FX": {
			{Variant: base, Threads: 1, NextOpt: core.LoopTiling, NextVariant: tiled, NextThreads: 1, PaperBW: 575, PaperOcc: 8.38, PaperSpeedup: 1.51},
			{Variant: tiled, Threads: 1, Final: true, PaperBW: 554, PaperOcc: 7.85},
		},
	}
}

func snapSteps() map[string][]Step {
	base := workloads.Variant{}
	pref := workloads.Variant{SWPrefetchL2: true}
	return map[string][]Step{
		"SKL": {
			{Variant: base, Threads: 1, NextOpt: core.SoftwarePrefetchL2, NextVariant: pref, NextThreads: 1, PaperBW: 58.2, PaperOcc: 3.79, PaperSpeedup: 1.01},
			{Variant: pref, Threads: 1, NextOpt: core.SMT2, NextVariant: pref, NextThreads: 2, PaperBW: 59, PaperOcc: 3.87, PaperSpeedup: 1.03},
		},
		"KNL": {
			{Variant: base, Threads: 1, NextOpt: core.SoftwarePrefetchL2, NextVariant: pref, NextThreads: 1, PaperBW: 122.9, PaperOcc: 5.0, PaperSpeedup: 1.08},
			{Variant: pref, Threads: 1, NextOpt: core.SMT2, NextVariant: pref, NextThreads: 2, PaperBW: 126.4, PaperOcc: 5.2, PaperSpeedup: 1.14},
			{Variant: pref, Threads: 2, NextOpt: core.SMT4, NextVariant: pref, NextThreads: 4, PaperBW: 166.4, PaperOcc: 6.98, PaperSpeedup: 1.02},
		},
		"A64FX": {
			{Variant: base, Threads: 1, NextOpt: core.SoftwarePrefetchL2, NextVariant: pref, NextThreads: 1, PaperBW: 93.88, PaperOcc: 1.1, PaperSpeedup: 1.07},
			{Variant: pref, Threads: 1, Final: true, PaperBW: 97.3, PaperOcc: 1.2},
		},
	}
}

// runKey identifies a distinct simulated configuration.
type runKey struct {
	workload string
	plat     string
	variant  workloads.Variant
	threads  int
}

// Runner executes table regenerations on a bounded worker pool. It holds
// no results between calls: simulations are kept by its runner.Runner (a
// row and its successor, concurrent pipelines and later calls all share
// runs there) and platform profiles by the configured source.
type Runner struct {
	opts     Options
	pool     *engine.Pool
	profiles *xmem.Profiles // the X-Mem source when opts.ProfileFor is nil
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	opts.normalize()
	return &Runner{opts: opts, pool: engine.New(opts.Workers), profiles: xmem.NewProfiles(func(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
		return xmem.CharacterizeContext(ctx, p, xmem.Options{})
	})}
}

func (r *Runner) run(ctx context.Context, w workloads.Workload, p *platform.Platform, v workloads.Variant, threads int) (*sim.Result, error) {
	res, err := r.opts.SimRunner.Run(ctx, w.WithVariant(v).Config(p, threads, r.opts.Scale))
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s %s: %w", w.Name(), p.Name, v.Label(threads), err)
	}
	return res, nil
}

// profile returns the platform's bandwidth→latency curve from the
// configured source.
func (r *Runner) profile(ctx context.Context, p *platform.Platform) (curve *queueing.Curve, err error) {
	if r.opts.ProfileFor != nil {
		curve, err = r.opts.ProfileFor(p)
	} else {
		curve, _, err = r.profiles.Get(ctx, p)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: profiling %s: %w", p.Name, err)
	}
	return curve, nil
}

// tableWork enumerates everything a set of tables needs — each platform's
// profile and every distinct simulated configuration — in first-use order.
func (r *Runner) tableWork(ids []string) (plats []*platform.Platform, keys []runKey, err error) {
	seenKey := map[runKey]bool{}
	addKey := func(k runKey) {
		if !seenKey[k] {
			seenKey[k] = true
			keys = append(keys, k)
		}
	}
	seenPlat := map[string]bool{}
	for _, platName := range r.opts.Platforms {
		if seenPlat[platName] {
			continue
		}
		seenPlat[platName] = true
		p, err := platform.ByName(platName)
		if err != nil {
			return nil, nil, err
		}
		plats = append(plats, p)
	}
	for _, id := range ids {
		spec, ok := tableSpecs[id]
		if !ok {
			return nil, nil, fmt.Errorf("experiments: unknown table %q (want IV..IX)", id)
		}
		for _, p := range plats {
			for _, st := range spec.steps[p.Name] {
				addKey(runKey{workload: spec.workload, plat: p.Name, variant: st.Variant, threads: st.Threads})
				if !st.Final {
					addKey(runKey{workload: spec.workload, plat: p.Name, variant: st.NextVariant, threads: st.NextThreads})
				}
			}
		}
	}
	return plats, keys, nil
}

// computed is what one dispatch hands to assembly: every profile and
// simulation result its tables need. Assembly reads these and looks nothing
// up again — under a runner TTL a second lookup could find the result just
// computed already expired, and re-run it serially.
type computed struct {
	plats    []*platform.Platform
	profiles map[string]*queueing.Curve
	results  map[runKey]*sim.Result
}

// compute dispatches the tables' profiles and distinct simulations across
// the worker pool in one flat fan-out. Row order never depends on
// completion order: Map returns in submission order and assembly walks the
// ladders in paper order.
func (r *Runner) compute(ctx context.Context, ids []string) (*computed, error) {
	plats, keys, err := r.tableWork(ids)
	if err != nil {
		return nil, err
	}
	// One job type for both kinds of work, so they share one dispatch.
	type product struct {
		curve *queueing.Curve
		res   *sim.Result
	}
	jobs := make([]func(context.Context) (product, error), 0, len(plats)+len(keys))
	for _, p := range plats {
		p := p
		jobs = append(jobs, func(ctx context.Context) (product, error) {
			curve, err := r.profile(ctx, p)
			return product{curve: curve}, err
		})
	}
	for _, k := range keys {
		k := k
		jobs = append(jobs, func(ctx context.Context) (product, error) {
			w, ok := workloads.ByName(k.workload)
			if !ok {
				return product{}, fmt.Errorf("experiments: unknown workload %q", k.workload)
			}
			p, err := platform.ByName(k.plat)
			if err != nil {
				return product{}, err
			}
			res, err := r.run(ctx, w, p, k.variant, k.threads)
			return product{res: res}, err
		})
	}
	out, err := engine.Map(ctx, r.pool, jobs)
	if err != nil {
		return nil, err
	}
	c := &computed{plats: plats, profiles: make(map[string]*queueing.Curve, len(plats)), results: make(map[runKey]*sim.Result, len(keys))}
	for i, p := range plats {
		c.profiles[p.Name] = out[i].curve
	}
	for i, k := range keys {
		c.results[k] = out[len(plats)+i].res
	}
	return c, nil
}

// Table regenerates one paper table.
func (r *Runner) Table(id string) (*Table, error) {
	return r.TableContext(context.Background(), id)
}

// TableContext regenerates one paper table, dispatching its distinct runs
// concurrently while emitting rows in paper order.
func (r *Runner) TableContext(ctx context.Context, id string) (*Table, error) {
	c, err := r.compute(ctx, []string{id})
	if err != nil {
		return nil, err
	}
	return assemble(id, c)
}

// assemble builds a table's rows in paper order from what compute produced
// for it (compute has already rejected an unknown id or platform).
func assemble(id string, c *computed) (*Table, error) {
	spec := tableSpecs[id]
	w, _ := workloads.ByName(spec.workload)
	t := &Table{ID: spec.id, Workload: w.Name(), Routine: w.Routine()}

	for _, p := range c.plats {
		profile := c.profiles[p.Name]
		for _, st := range spec.steps[p.Name] {
			res := c.results[runKey{workload: spec.workload, plat: p.Name, variant: st.Variant, threads: st.Threads}]
			rep, err := core.Analyze(p, profile, w.Measurement(res))
			if err != nil {
				return nil, err
			}
			row := Row{
				Platform:     p.Name,
				Source:       st.Variant.Label(st.Threads),
				Threads:      st.Threads,
				BWGBs:        res.TotalGBs,
				PeakPct:      100 * rep.PeakFraction,
				LatNs:        rep.LatencyNs,
				Occ:          rep.Occupancy,
				TrueL1Occ:    res.TrueL1Occ,
				TrueL2Occ:    res.TrueL2Occ,
				PaperBW:      st.PaperBW,
				PaperOcc:     st.PaperOcc,
				PaperSpeedup: st.PaperSpeedup,
			}
			if !st.Final {
				next := c.results[runKey{workload: spec.workload, plat: p.Name, variant: st.NextVariant, threads: st.NextThreads}]
				row.NextOpt = st.NextOpt.String()
				row.Speedup = next.Throughput / res.Throughput
				caps := w.WithVariant(st.Variant).Capabilities(p, st.Threads)
				row.Stance = core.AdviceFor(core.Advise(rep, caps), st.NextOpt).Stance
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// AllTables regenerates every table, in order.
func (r *Runner) AllTables() ([]*Table, error) {
	return r.AllTablesContext(context.Background())
}

// AllTablesContext regenerates every table in paper order, with every
// distinct simulation across all six tables sharing one worker-pool
// dispatch — cross-table parallelism, identical output to the serial path.
func (r *Runner) AllTablesContext(ctx context.Context) ([]*Table, error) {
	ids := TableIDs()
	c, err := r.compute(ctx, ids)
	if err != nil {
		return nil, err
	}
	var out []*Table
	for _, id := range ids {
		t, err := assemble(id, c)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
