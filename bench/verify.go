package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"littleslaw/internal/core"
	"littleslaw/internal/experiments"
	"littleslaw/internal/platform"
	"littleslaw/internal/service"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
)

// directRun is a request body recomputed without the serving stack: the
// simulation config it names run through sim.RunContext directly (nil for
// a direct-measurement body), then core.Analyze.
type directRun struct {
	cfg     sim.Config
	res     *sim.Result
	simTime time.Duration
	// Heap objects and KiB the kernel run allocated; exact only when
	// nothing else ran beside it.
	mallocs  uint64
	allocKB  float64
	report   *core.Report
	platform string
	workload string
}

// simConfigOf resolves a workload body the way the analyze handler does
// (threads 1, scale 0.1 when absent).
func simConfigOf(req *service.AnalyzeRequest) (*platform.Platform, workloads.Workload, sim.Config, error) {
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return nil, nil, sim.Config{}, err
	}
	w, ok := workloads.ByName(req.Workload)
	if !ok {
		return nil, nil, sim.Config{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	w = w.WithVariant(req.Variant.Variant())
	threads, scale := req.ThreadsPerCore, req.Scale
	if threads == 0 {
		threads = 1
	}
	if scale == 0 {
		scale = 0.1
	}
	return p, w, w.Config(p, threads, scale), nil
}

// recompute answers body from first principles.
func recompute(ctx context.Context, body []byte) (*directRun, error) {
	req, err := service.DecodeAnalyzeRequest(body)
	if err != nil {
		return nil, err
	}
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return nil, err
	}
	profile, err := experiments.PaperProfileFor(p)
	if err != nil {
		return nil, err
	}
	d := &directRun{platform: p.Name, workload: req.Workload}
	var m core.Measurement
	if req.Measurement != nil {
		m = req.Measurement.Measurement()
	} else {
		_, w, cfg, err := simConfigOf(req)
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		begin := time.Now()
		res, err := sim.RunContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		d.cfg, d.res, d.simTime = cfg, res, time.Since(begin)
		runtime.ReadMemStats(&after)
		d.mallocs = after.Mallocs - before.Mallocs
		d.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
		m = core.Measurement{
			Routine:                w.Routine(),
			BandwidthGBs:           res.TotalGBs,
			ActiveCores:            res.Cores,
			ThreadsPerCore:         res.ThreadsPerCore,
			PrefetchedReadFraction: res.PrefetchedReadFraction,
			RandomAccess:           w.RandomAccess(),
		}
	}
	if d.report, err = core.Analyze(p, profile, m); err != nil {
		return nil, err
	}
	return d, nil
}

// matches reports how a served response differs from the direct
// recomputation ("" when it does not). encoding/json round-trips float64
// exactly, so equality is exact.
func (d *directRun) matches(resp []byte) string {
	var got service.AnalyzeResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	r, g := d.report, got.Report
	if g.Routine != r.Routine || g.Platform != r.Platform || g.BandwidthGBs != r.BandwidthGBs ||
		g.PeakFraction != r.PeakFraction || g.AchievableFraction != r.AchievableFraction ||
		g.LatencyNs != r.LatencyNs || g.Occupancy != r.Occupancy || g.Limiter != r.Limiter.String() ||
		g.LimiterCapacity != r.LimiterCapacity || g.HeadroomFraction != r.HeadroomFraction ||
		g.L2SpareMSHRs != r.L2SpareMSHRs {
		return fmt.Sprintf("report %+v, direct %+v", g, *r)
	}
	if got.Explanation != core.Explain(r) {
		return "explanation differs from core.Explain of the direct report"
	}
	if got.Degraded || got.Approximate || got.Stale {
		return "response marked degraded"
	}
	if d.res == nil {
		if got.Run != nil {
			return "measurement answer carries a run"
		}
		return ""
	}
	s, run := d.res, got.Run
	if run == nil {
		return "workload answer carries no run"
	}
	if run.Cores != s.Cores || run.ThreadsPerCore != s.ThreadsPerCore || run.Throughput != s.Throughput ||
		run.ReadGBs != s.ReadGBs || run.WriteGBs != s.WriteGBs || run.TotalGBs != s.TotalGBs ||
		run.MeanDRAMLatencyNs != s.MeanDRAMLatencyNs || run.TrueL1Occ != s.TrueL1Occ ||
		run.TrueL2Occ != s.TrueL2Occ || run.PrefetchedReadFraction != s.PrefetchedReadFraction {
		return fmt.Sprintf("run %+v, direct %+v", *run, *s)
	}
	return ""
}
