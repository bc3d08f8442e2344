package autotune

import (
	"context"
	"reflect"
	"testing"

	"littleslaw/internal/core"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
)

func knlCurve() *queueing.Curve {
	return queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 1, LatencyNs: 166}, {BandwidthGBs: 122.9, LatencyNs: 167},
		{BandwidthGBs: 233, LatencyNs: 180}, {BandwidthGBs: 296, LatencyNs: 209},
		{BandwidthGBs: 344, LatencyNs: 238}, {BandwidthGBs: 365, LatencyNs: 330},
	})
}

func a64Curve() *queueing.Curve {
	return queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 2, LatencyNs: 142}, {BandwidthGBs: 575, LatencyNs: 179},
		{BandwidthGBs: 788, LatencyNs: 280}, {BandwidthGBs: 812, LatencyNs: 330},
	})
}

func TestTuneValidation(t *testing.T) {
	w, _ := workloads.ByName("ISx")
	if _, err := Tune(platform.KNL(), nil, w, Options{}); err == nil {
		t.Fatal("nil profile accepted")
	}
}

// TestTuneReplaysISxLadder: the loop should rediscover the paper's §IV-A
// KNL sequence on its own — vectorize, add SMT, then shift the bottleneck
// to the L2 MSHR file with software prefetching — and end with the
// occupancy well above the L1 capacity.
func TestTuneReplaysISxLadder(t *testing.T) {
	w, _ := workloads.ByName("ISx")
	res, err := Tune(platform.KNL(), knlCurve(), w, Options{Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps taken")
	}
	sawPrefetch := false
	for _, s := range res.Steps {
		if s.Tried == core.SoftwarePrefetchL2 && s.Accepted {
			sawPrefetch = true
		}
	}
	if !sawPrefetch {
		t.Errorf("loop never accepted L2 software prefetching (the §IV-A headline); steps: %+v", res.Steps)
	}
	if !res.FinalVariant.SWPrefetchL2 {
		t.Errorf("final variant lost the prefetch: %+v", res.FinalVariant)
	}
	if res.TotalSpeedup < 1.25 {
		t.Errorf("total speedup = %.2f, want ≥1.25 (paper's ladder compounds to ~1.5x)", res.TotalSpeedup)
	}
	// The final state should have broken past the L1 MSHR capacity.
	if res.FinalReport.Occupancy < float64(platform.KNL().L1.MSHRs) {
		t.Errorf("final occupancy %.2f still under the L1 file; bottleneck not shifted", res.FinalReport.Occupancy)
	}
}

// TestTuneStopsOnSaturatedSKL: on SKL the base ISx run is already pinned at
// the L1 MSHR file and the bandwidth ceiling; the loop must try (at most)
// the prefetch shift and otherwise stop quickly without accepting noise.
func TestTuneStopsOnSaturatedSKL(t *testing.T) {
	w, _ := workloads.ByName("ISx")
	skl := queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 0.5, LatencyNs: 82}, {BandwidthGBs: 106.9, LatencyNs: 145},
		{BandwidthGBs: 112, LatencyNs: 220},
	})
	res, err := Tune(platform.SKL(), skl, w, Options{Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.Tried == core.Vectorize && s.Accepted {
			t.Errorf("vectorization accepted on saturated SKL (paper: 1x)")
		}
	}
	if res.TotalSpeedup > 1.15 {
		t.Errorf("total speedup %.2f on a saturated machine looks like noise acceptance", res.TotalSpeedup)
	}
}

// TestTuneUserIntuitionFusion: with the recipe exhausted on A64FX SNAP,
// the §IV-F fallback should disable fusion and win.
func TestTuneUserIntuitionFusion(t *testing.T) {
	w, _ := workloads.ByName("SNAP")
	res, err := Tune(platform.A64FX(), a64Curve(), w, Options{Scale: 0.15, UserIntuition: true})
	if err != nil {
		t.Fatal(err)
	}
	sawNoFuse := false
	for _, s := range res.Steps {
		if s.Tried == core.DisableFusion {
			sawNoFuse = true
			if !s.Accepted {
				t.Errorf("nofuse tried but rejected (speedup %.2f); paper saw ~20%%", s.Speedup)
			}
		}
	}
	if !sawNoFuse {
		t.Errorf("user-intuition fusion step never tried; steps: %+v", res.Steps)
	}
	if !res.FinalVariant.NoFuse {
		t.Errorf("final variant not unfused: %+v", res.FinalVariant)
	}
}

func TestTuneMaxStepsBound(t *testing.T) {
	w, _ := workloads.ByName("CoMD")
	res, err := Tune(platform.KNL(), knlCurve(), w, Options{Scale: 0.1, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) > 1 {
		t.Fatalf("steps = %d, want ≤ 1", len(res.Steps))
	}
}

// TestTuneDeterministicAcrossWorkers: the speculative batch evaluator must
// replay the serial loop's exact step sequence — same optimizations, same
// speedups, same acceptances, same final state — for any worker count.
func TestTuneDeterministicAcrossWorkers(t *testing.T) {
	w, _ := workloads.ByName("ISx")
	tune := func(workers int) *Result {
		res, err := Tune(platform.KNL(), knlCurve(), w, Options{Scale: 0.05, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := tune(1)
	for _, workers := range []int{2, 4} {
		got := tune(workers)
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("tune diverged at %d workers:\nserial: %+v\nparallel: %+v", workers, serial, got)
		}
	}
}

// TestGatherCandidatesMatchesPickSequence: the slate must be exactly what
// repeated pickCandidate calls with accumulating tried-marks would yield,
// and gathering must not mutate the caller's tried-set.
func TestGatherCandidatesMatchesPickSequence(t *testing.T) {
	w, _ := workloads.ByName("ISx")
	p := platform.KNL()
	var opts Options
	opts.normalize()
	res, err := sim.RunContext(context.Background(), w.Config(p, 1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(p, knlCurve(), core.Measurement{
		Routine:        w.Routine(),
		BandwidthGBs:   res.TotalGBs,
		ActiveCores:    res.Cores,
		ThreadsPerCore: 1,
		RandomAccess:   w.RandomAccess(),
	})
	if err != nil {
		t.Fatal(err)
	}
	caps := w.Capabilities(p, 1)
	tried := map[core.Optimization]bool{}
	cands := gatherCandidates(rep, caps, w.Variant(), 1, tried, p, opts)
	if len(tried) != 0 {
		t.Fatalf("gatherCandidates mutated the caller's tried-set: %v", tried)
	}
	replay := map[core.Optimization]bool{}
	for i, c := range cands {
		opt, nv, nt, ok := pickCandidate(rep, caps, w.Variant(), 1, replay, p, opts)
		if !ok {
			t.Fatalf("pick sequence ended at %d, slate has %d", i, len(cands))
		}
		if opt != c.opt || nv != c.variant || nt != c.threads {
			t.Fatalf("slate[%d] = %+v, pick sequence gives (%v, %+v, %d)", i, c, opt, nv, nt)
		}
		replay[opt] = true
	}
	if _, _, _, ok := pickCandidate(rep, caps, w.Variant(), 1, replay, p, opts); ok {
		t.Fatal("pick sequence continues past the gathered slate")
	}
}
