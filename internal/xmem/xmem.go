// Package xmem reproduces the role of the X-Mem cross-platform memory
// characterization tool (Gottscho et al., ISPASS 2016) in the paper's
// methodology: measuring, once per platform, the observed memory latency at
// many levels of bandwidth utilization.
//
// The characterization runs against the simulated machine exactly the way
// X-Mem runs against real silicon: load-generator threads on every core
// drive a configurable request intensity, while a dedicated probe thread
// measures dependent-load latency. Sweeping the intensity traces the
// bandwidth→latency profile that internal/core later looks observed
// latency up from (the paper's footnote 2: the profile is independent of
// the application and computed once per processor).
package xmem

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"littleslaw/internal/engine"
	"littleslaw/internal/events"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
)

// Options tunes a characterization run.
type Options struct {
	// Cores generating load; 0 means all platform cores.
	Cores int
	// ProbeOps is the number of dependent loads the latency probe issues
	// per operating point (after warmup); 0 means 300.
	ProbeOps int
	// WarmupOps is the probe's warmup length; 0 means 60.
	WarmupOps int
	// Levels overrides the default intensity sweep. Each level is the
	// number of in-flight prefetch lines each generator core sustains
	// (its gap selects low-bandwidth points; see defaultLevels).
	Levels []Level
	// Seed for the probe's random pointer chain.
	Seed int64
	// Workers bounds how many operating points are measured concurrently
	// (each point is an independent simulated node). 0 means
	// runtime.GOMAXPROCS(0); 1 forces the historical serial sweep. The
	// resulting curve is identical for any worker count.
	Workers int
}

// Level is one operating point of the sweep.
type Level struct {
	Window int     // in-flight lines per generator core (0 = generators idle)
	GapCyc float64 // extra pacing between generator issues, in core cycles
}

func defaultLevels(p *platform.Platform) []Level {
	levels := []Level{
		{Window: 0},
		{Window: 1, GapCyc: 800},
		{Window: 1, GapCyc: 200},
		{Window: 1, GapCyc: 50},
		{Window: 1},
		{Window: 2},
		{Window: 3},
		{Window: 4},
		{Window: 6},
		{Window: 8},
		{Window: 10},
		{Window: 12},
	}
	for _, w := range []int{16, 20, 24, 28, 32} {
		if w <= p.L2.MSHRs {
			levels = append(levels, Level{Window: w})
		}
	}
	return levels
}

// Characterize measures the platform's bandwidth→latency profile.
func Characterize(p *platform.Platform, opts Options) (*queueing.Curve, error) {
	return CharacterizeContext(context.Background(), p, opts)
}

// CharacterizeContext measures the profile with the sweep's operating
// points dispatched across a worker pool (each point is its own simulated
// node, so points are independent) and with cooperative cancellation. The
// points enter the curve in sweep order, so the result is identical for
// any worker count.
func CharacterizeContext(ctx context.Context, p *platform.Platform, opts Options) (*queueing.Curve, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Cores == 0 {
		opts.Cores = p.Cores
	}
	if opts.Cores < 1 {
		return nil, fmt.Errorf("xmem: need at least one core")
	}
	if opts.ProbeOps == 0 {
		opts.ProbeOps = 300
	}
	if opts.WarmupOps == 0 {
		opts.WarmupOps = 60
	}
	levels := opts.Levels
	if levels == nil {
		levels = defaultLevels(p)
	}
	jobs := make([]func(context.Context) (queueing.CurvePoint, error), len(levels))
	for i, lv := range levels {
		lv := lv
		jobs[i] = func(ctx context.Context) (queueing.CurvePoint, error) {
			pt, err := measure(ctx, p, opts, lv)
			if err != nil {
				return queueing.CurvePoint{}, fmt.Errorf("xmem: level %+v: %w", lv, err)
			}
			return pt, nil
		}
	}
	pts, err := engine.Map(ctx, engine.New(opts.Workers), jobs)
	if err != nil {
		return nil, err
	}
	return queueing.NewCurve(pts)
}

// measure runs one operating point: generators at the given level plus the
// latency probe, reporting (bandwidth, probe latency).
func measure(ctx context.Context, p *platform.Platform, opts Options, lv Level) (queueing.CurvePoint, error) {
	sched := &events.Scheduler{}
	node := memsys.NewNode(sched, p)
	clock := p.Clock()
	lineBytes := uint64(p.LineBytes)

	// Load generators: one per core, each keeping lv.Window random-line
	// reads in flight over a private arena — X-Mem's random-read load
	// worker mode, which matches the loaded-latency behaviour the paper's
	// anchors reflect (streaming traffic earns row-buffer hits and would
	// trace an optimistic curve). Flow control comes from the resolve
	// callback.
	type genState struct {
		h    *memsys.Hierarchy
		rng  *rand.Rand
		base uint64
	}
	gens := make([]*genState, opts.Cores)
	for i := range gens {
		gens[i] = &genState{
			h: memsys.NewHierarchy(node),
			// Private 1 GiB arena per core, far beyond cache capacity.
			rng:  rand.New(rand.NewSource(int64(i)*7919 + opts.Seed)),
			base: uint64(i+1) << 30,
		}
	}
	stop := false
	gap := clock.Cycles(lv.GapCyc)
	const genArena = 1 << 29
	var launch func(g *genState)
	launch = func(g *genState) {
		if stop {
			return
		}
		addr := g.base + (g.rng.Uint64()%genArena)&^(lineBytes-1)
		g.h.Access(addr, memsys.PrefetchL2, func() {
			if gap > 0 {
				sched.After(gap, func() { launch(g) })
			} else {
				launch(g)
			}
		})
	}
	if lv.Window > 0 {
		for _, g := range gens {
			w := lv.Window
			if w > p.L2.MSHRs {
				w = p.L2.MSHRs
			}
			for s := 0; s < w; s++ {
				launch(g)
			}
		}
	}

	// Latency probe: a dedicated core issuing one dependent random load at
	// a time, exactly like X-Mem's pointer-chasing latency thread.
	probe := memsys.NewHierarchy(node)
	rng := rand.New(rand.NewSource(opts.Seed + int64(lv.Window*1000) + int64(lv.GapCyc)))
	const probeArena = 1 << 29
	probeBase := uint64(opts.Cores+8) << 30

	completed := 0
	var latAccum events.Duration
	var measStart events.Time
	measuring := false
	totalOps := opts.WarmupOps + opts.ProbeOps

	var chase func()
	chase = func() {
		if completed >= totalOps {
			stop = true
			return
		}
		addr := probeBase + (rng.Uint64() % probeArena &^ (lineBytes - 1))
		start := sched.Now()
		probe.Access(addr, memsys.Load, func() {
			if measuring {
				latAccum += sched.Now() - start
			}
			completed++
			if completed == opts.WarmupOps {
				node.DRAM.ResetStats()
				measStart = sched.Now()
				measuring = true
			}
			chase()
		})
	}
	chase()
	const cancelCheckEvery = 8192
	cancelSteps := 0
	sched.RunWhile(func() bool {
		cancelSteps++
		if cancelSteps%cancelCheckEvery == 0 && ctx.Err() != nil {
			return false
		}
		return !stop
	})
	if err := ctx.Err(); err != nil {
		return queueing.CurvePoint{}, fmt.Errorf("measurement cancelled: %w", err)
	}

	window := sched.Now() - measStart
	if window <= 0 || opts.ProbeOps == 0 {
		return queueing.CurvePoint{}, fmt.Errorf("empty measurement window")
	}
	bytes := node.DRAM.Stats.BytesMoved(p.LineBytes)
	bw := float64(bytes) / window.Seconds() / 1e9
	lat := float64(latAccum) / float64(opts.ProbeOps) / 1e3 // ps → ns
	return queueing.CurvePoint{BandwidthGBs: bw, LatencyNs: lat}, nil
}

// Profile is a serializable bandwidth→latency profile for one platform.
type Profile struct {
	Platform  string                `json:"platform"`
	LineBytes int                   `json:"line_bytes"`
	Points    []queueing.CurvePoint `json:"points"`
}

// NewProfile wraps a measured curve for serialization.
func NewProfile(p *platform.Platform, curve *queueing.Curve) *Profile {
	return &Profile{Platform: p.Name, LineBytes: p.LineBytes, Points: curve.Points()}
}

// Curve reconstructs the lookup curve.
func (pr *Profile) Curve() (*queueing.Curve, error) { return queueing.NewCurve(pr.Points) }

// WriteJSON serializes the profile.
func (pr *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pr)
}

// ReadJSON deserializes and validates a profile: the points must form a
// legal curve (finite, positive latencies) and the line size, if present,
// must be positive — profiles may arrive from untrusted files.
func ReadJSON(r io.Reader) (*Profile, error) {
	var pr Profile
	if err := json.NewDecoder(r).Decode(&pr); err != nil {
		return nil, fmt.Errorf("xmem: decoding profile: %w", err)
	}
	if len(pr.Points) == 0 {
		return nil, fmt.Errorf("xmem: profile has no points")
	}
	if pr.LineBytes < 0 {
		return nil, fmt.Errorf("xmem: invalid line size %d", pr.LineBytes)
	}
	if _, err := queueing.NewCurve(pr.Points); err != nil {
		return nil, fmt.Errorf("xmem: invalid profile: %w", err)
	}
	sort.Slice(pr.Points, func(i, j int) bool { return pr.Points[i].BandwidthGBs < pr.Points[j].BandwidthGBs })
	return &pr, nil
}

// Profiles keeps each platform's bandwidth→latency curve — the paper's
// once-per-processor artifact — for the life of the process, keyed on the
// platform name: concurrent Gets for one platform share one run of the
// source, different platforms characterize in parallel, and a failed or
// cancelled run is forgotten and retried by the next caller.
type Profiles struct {
	source func(context.Context, *platform.Platform) (*queueing.Curve, error)
	cache  *engine.LRU[string, *queueing.Curve]
}

// NewProfiles returns an empty Profiles filled on demand from source, which
// must honor ctx if it blocks.
func NewProfiles(source func(context.Context, *platform.Platform) (*queueing.Curve, error)) *Profiles {
	return &Profiles{source: source, cache: engine.NewLRU[string, *queueing.Curve](0)}
}

// Get returns p's curve. hit reports that this caller did not pay for the
// characterization: the curve was already held, or another caller's run
// was joined.
func (ps *Profiles) Get(ctx context.Context, p *platform.Platform) (curve *queueing.Curve, hit bool, err error) {
	return ps.cache.Do(ctx, p.Name, func(ctx context.Context) (*queueing.Curve, error) {
		return ps.source(ctx, p)
	})
}

var std = NewProfiles(func(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
	return CharacterizeContext(ctx, p, Options{})
})

// DefaultProfiles returns the process-wide Profiles of default
// characterizations, the one ProfileFor reads.
func DefaultProfiles() *Profiles { return std }

// ProfileFor returns the (process-cached) default characterization for a
// platform.
func ProfileFor(p *platform.Platform) (*queueing.Curve, error) {
	return ProfileForContext(context.Background(), p)
}

// ProfileForContext is ProfileFor with cancellation; the underlying sweep
// also fans its operating points across the default worker pool.
func ProfileForContext(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
	curve, _, err := std.Get(ctx, p)
	return curve, err
}
