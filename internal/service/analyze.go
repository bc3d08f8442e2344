// The analysis handlers: /v1/analyze and /v1/advise, and the resolution
// both share — a workload-bodied request to a simulated (or, under
// brownout, stale or analytic) measurement, a measurement-bodied one
// straight to the analysis.
package service

import (
	"context"
	"fmt"
	"net/http"

	"littleslaw/internal/analytic"
	"littleslaw/internal/brownout"
	"littleslaw/internal/core"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/sim"
	"littleslaw/internal/trace"
	"littleslaw/internal/workloads"
)

// degradation describes how an answer was cheapened under brownout: the
// mode that chose the path, and which marker (Approximate for the
// closed-form analytic model, Stale for an expired cache entry) the
// response must carry. The zero value is a full-fidelity answer.
type degradation struct {
	Mode        brownout.Mode
	Approximate bool
	Stale       bool
}

// Degraded reports whether any marker is set.
func (d degradation) Degraded() bool { return d.Approximate || d.Stale }

// stamp copies the degradation markers into an analyze response.
func (d degradation) stampAnalyze(resp *AnalyzeResponse) {
	if d.Degraded() {
		resp.Degraded = true
		resp.BrownoutMode = d.Mode.String()
		resp.Approximate = d.Approximate
		resp.Stale = d.Stale
	}
}

// resolveAnalyze turns an AnalyzeRequest into (platform, measurement,
// optional run, optional workload) — running the simulation when the
// request names a workload instead of supplying counters. Under brownout
// the simulation step degrades: at B1 the runner may serve an expired
// cache entry (marked Stale), at B2+ the closed-form analytic model
// replaces the kernel entirely (marked Approximate, no Run in the
// response). Direct-measurement requests never involve the kernel and are
// never degraded.
func (s *Server) resolveAnalyze(ctx context.Context, req *AnalyzeRequest) (*platform.Platform, core.Measurement, *sim.Result, workloads.Workload, degradation, error) {
	var deg degradation
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return nil, core.Measurement{}, nil, nil, deg, failWith(http.StatusNotFound, err)
	}
	if req.Measurement != nil {
		return p, req.Measurement.Measurement(), nil, nil, deg, nil
	}
	w, threads, scale, err := resolveWorkload(p, req)
	if err != nil {
		return nil, core.Measurement{}, nil, nil, deg, err
	}
	mode := modeFrom(ctx)

	if mode >= brownout.B2 {
		// Analytic fallback: answer from the closed-form fixed point
		// instead of the kernel — ~10^3× cheaper, within the ablation
		// tolerance of the simulated answer on the golden configs, and
		// always marked Approximate.
		m, err := s.analyticMeasurement(ctx, p, w, threads, scale)
		if err != nil {
			return nil, core.Measurement{}, nil, nil, deg, err
		}
		deg = degradation{Mode: mode, Approximate: true}
		return p, m, nil, w, deg, nil
	}

	cfgSim := w.Config(p, threads, scale)
	var res *sim.Result
	if mode == brownout.B1 {
		var stale bool
		res, stale, err = s.cfg.SimRunner.RunStale(ctx, cfgSim)
		if stale {
			deg = degradation{Mode: mode, Stale: true}
		}
	} else {
		res, err = s.cfg.SimRunner.Run(ctx, cfgSim)
	}
	if err != nil {
		return nil, core.Measurement{}, nil, nil, degradation{}, err
	}
	return p, measured(w, res), res, w, deg, nil
}

// resolveWorkload resolves a workload-bodied request on p to what it asks
// to simulate, applying the defaults (threads 1, scale 0.1).
func resolveWorkload(p *platform.Platform, req *AnalyzeRequest) (w workloads.Workload, threads int, scale float64, err error) {
	w, ok := workloads.ByName(req.Workload)
	if !ok {
		return nil, 0, 0, failWith(http.StatusNotFound, fmt.Errorf("unknown workload %q", req.Workload))
	}
	w = w.WithVariant(req.Variant.Variant())
	threads = req.ThreadsPerCore
	if threads == 0 {
		threads = 1
	}
	if threads > p.SMTWays {
		return nil, 0, 0, failWith(http.StatusBadRequest,
			fmt.Errorf("platform %s supports at most %d threads per core", p.Name, p.SMTWays))
	}
	scale = req.Scale
	if scale == 0 {
		scale = 0.1
	}
	return w, threads, scale, nil
}

// measured shapes a workload's simulated run as the measurement the
// analysis consumes.
func measured(w workloads.Workload, res *sim.Result) core.Measurement {
	return core.Measurement{
		Routine:                w.Routine(),
		BandwidthGBs:           res.TotalGBs,
		ActiveCores:            res.Cores,
		ThreadsPerCore:         res.ThreadsPerCore,
		PrefetchedReadFraction: res.PrefetchedReadFraction,
		RandomAccess:           w.RandomAccess(),
	}
}

// analyticMeasurement is the B2 path: predict the workload's operating
// point with the closed-form model and shape it as a measurement for the
// same downstream core.Analyze the kernel path feeds. The demand
// concurrency comes from the normalized sim config's window (the per-
// thread MLP the generator would expose), so the analytic question matches
// the simulated one.
func (s *Server) analyticMeasurement(ctx context.Context, p *platform.Platform, w workloads.Workload, threads int, scale float64) (core.Measurement, error) {
	norm, err := w.Config(p, threads, scale).Normalized()
	if err != nil {
		return core.Measurement{}, err
	}
	profile, _, err := s.profile(ctx, p)
	if err != nil {
		return core.Measurement{}, err
	}
	a := trace.Begin(ctx, "analytic")
	pred, err := analytic.Predict(p, profile, analytic.Inputs{
		ConcurrencyPerThread: float64(norm.Window),
		ThreadsPerCore:       threads,
		L1Bound:              w.RandomAccess(),
	})
	a.End("predict")
	if err != nil {
		return core.Measurement{}, err
	}
	return core.Measurement{
		Routine:                w.Routine(),
		BandwidthGBs:           pred.BandwidthGBs,
		ActiveCores:            p.Cores,
		ThreadsPerCore:         threads,
		PrefetchedReadFraction: -1,
		RandomAccess:           w.RandomAccess(),
	}, nil
}

// analyzeOne runs one analyze request to a response — the shared core of
// /v1/analyze and /v1/analyze/batch.
func (s *Server) analyzeOne(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	p, m, res, _, deg, err := s.resolveAnalyze(ctx, req)
	if err != nil {
		return nil, err
	}
	profile, _, err := s.profile(ctx, p)
	if err != nil {
		return nil, err
	}
	resp, err := analyzeResponse(p, profile, m, res)
	if err != nil {
		return nil, err
	}
	deg.stampAnalyze(resp)
	return resp, nil
}

// analyzeResponse is the full-fidelity answer to one analysis; res is nil
// for a measurement-bodied request.
func analyzeResponse(p *platform.Platform, profile *queueing.Curve, m core.Measurement, res *sim.Result) (*AnalyzeResponse, error) {
	rep, err := core.Analyze(p, profile, m)
	if err != nil {
		return nil, failWith(http.StatusBadRequest, err)
	}
	resp := &AnalyzeResponse{Report: reportJSON(rep), Explanation: core.Explain(rep)}
	if res != nil {
		resp.Run = runJSON(res)
	}
	return resp, nil
}

// analyzeView answers a workload-bodied analysis at full fidelity from the
// runner entry's kept encoding, so a cache hit is a lookup. A miss renders
// exactly the body analyzeOne and WriteJSON would write. The owner is the
// profile curve the answer was rendered against: servers sharing a runner
// with different profile sources each get their own bytes.
func (s *Server) analyzeView(ctx context.Context, req *AnalyzeRequest) ([]byte, error) {
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return nil, failWith(http.StatusNotFound, err)
	}
	w, threads, scale, err := resolveWorkload(p, req)
	if err != nil {
		return nil, err
	}
	profile, _, err := s.profile(ctx, p)
	if err != nil {
		return nil, err
	}
	return s.cfg.SimRunner.RunRendered(ctx, w.Config(p, threads, scale), profile, func(res *sim.Result) ([]byte, error) {
		resp, err := analyzeResponse(p, profile, measured(w, res), res)
		if err != nil {
			return nil, err
		}
		return encodeJSON(resp), nil
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	body, err := ReadBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeAnalyzeRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	// A full-fidelity workload answer is served from the runner entry it was
	// rendered from; measurement bodies and degraded answers are built here.
	if req.Measurement == nil && modeFrom(r.Context()) == brownout.B0 {
		out, err := s.analyzeView(r.Context(), req)
		if err != nil {
			return err
		}
		s.writeBody(w, http.StatusOK, out)
		return nil
	}
	resp, err := s.analyzeOne(r.Context(), req)
	if err != nil {
		return err
	}
	if resp.Degraded {
		w.Header().Set("X-Degraded", "true")
	}
	s.WriteJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) error {
	body, err := ReadBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeAnalyzeRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	p, m, _, wl, deg, err := s.resolveAnalyze(r.Context(), req)
	if err != nil {
		return err
	}
	profile, _, err := s.profile(r.Context(), p)
	if err != nil {
		return err
	}
	rep, err := core.Analyze(p, profile, m)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	caps := core.Capabilities{SMTWays: p.SMTWays, CurrentThreads: m.ThreadsPerCore, IrregularAccess: m.RandomAccess}
	if wl != nil {
		caps = wl.Capabilities(p, m.ThreadsPerCore)
	}
	resp := AdviseResponse{Report: reportJSON(rep), Explanation: core.Explain(rep)}
	if deg.Degraded() {
		resp.Degraded = true
		resp.BrownoutMode = deg.Mode.String()
		resp.Approximate = deg.Approximate
		resp.Stale = deg.Stale
		w.Header().Set("X-Degraded", "true")
	}
	for _, a := range core.Advise(rep, caps) {
		resp.Advice = append(resp.Advice, AdviceJSON{
			Optimization: a.Opt.String(),
			Stance:       a.Stance.String(),
			Reason:       a.Reason,
		})
	}
	s.WriteJSON(w, http.StatusOK, resp)
	return nil
}
