package xmem

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
)

// fastOpts keeps unit-test characterizations cheap.
var fastOpts = Options{
	ProbeOps:  80,
	WarmupOps: 20,
	Levels: []Level{
		{Window: 0},
		{Window: 1, GapCyc: 200},
		{Window: 2},
		{Window: 6},
		{Window: 12},
	},
}

func TestCharacterizeProducesMonotoneCurve(t *testing.T) {
	p := platform.SKL()
	c, err := Characterize(p, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	pts := c.Points()
	if len(pts) < 3 {
		t.Fatalf("curve has %d points, want several", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].LatencyNs < pts[i-1].LatencyNs {
			t.Fatalf("latency decreased along the curve: %+v", pts)
		}
	}
	if c.IdleLatencyNs() < 60 || c.IdleLatencyNs() > 110 {
		t.Errorf("SKL idle latency = %.1f ns, want ~82", c.IdleLatencyNs())
	}
	if c.MaxBandwidthGBs() < 2*c.Points()[0].BandwidthGBs {
		t.Error("sweep did not increase bandwidth meaningfully")
	}
}

func TestCharacterizeValidation(t *testing.T) {
	p := platform.SKL()
	p.Cores = 0
	if _, err := Characterize(p, fastOpts); err == nil {
		t.Fatal("invalid platform accepted")
	}
	if _, err := Characterize(platform.SKL(), Options{Cores: -3}); err == nil {
		t.Fatal("negative core count accepted")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := platform.KNL()
	curve := queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 10, LatencyNs: 170},
		{BandwidthGBs: 300, LatencyNs: 210},
	})
	prof := NewProfile(p, curve)
	var buf bytes.Buffer
	if err := prof.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Platform != "KNL" || back.LineBytes != 64 || len(back.Points) != 2 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	c2, err := back.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if c2.LatencyAt(10) != 170 {
		t.Fatalf("reconstructed curve wrong: %v", c2.LatencyAt(10))
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"platform":"X","points":[]}`)); err == nil {
		t.Fatal("empty profile accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"platform":"X","line_bytes":-64,"points":[{"BandwidthGBs":1,"LatencyNs":80}]}`)); err == nil {
		t.Fatal("negative line size accepted")
	}
	for _, bad := range []string{
		`{"platform":"X","points":[{"BandwidthGBs":-1,"LatencyNs":80}]}`,
		`{"platform":"X","points":[{"BandwidthGBs":1,"LatencyNs":0}]}`,
		`{"platform":"X","points":[{"BandwidthGBs":1,"LatencyNs":1e999}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
			t.Fatalf("invalid profile accepted: %s", bad)
		}
	}
}

// TestProfilesCharacterizeOncePerPlatform: the source runs once per platform
// name, later Gets report a hit, and a failed run is retried, not retained.
func TestProfilesCharacterizeOncePerPlatform(t *testing.T) {
	calls := map[string]int{}
	boom := errors.New("boom")
	ps := NewProfiles(func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
		calls[p.Name]++
		if p.Name == "KNL" && calls[p.Name] == 1 {
			return nil, boom
		}
		return queueing.MustCurve([]queueing.CurvePoint{{BandwidthGBs: 1, LatencyNs: 100}}), nil
	})
	ctx := context.Background()
	first, hit, err := ps.Get(ctx, platform.SKL())
	if err != nil || hit {
		t.Fatalf("first Get = (hit=%v, %v), want a miss", hit, err)
	}
	again, hit, err := ps.Get(ctx, platform.SKL())
	if err != nil || !hit || again != first {
		t.Fatalf("second Get = (same=%v, hit=%v, %v), want the held curve", again == first, hit, err)
	}
	if _, _, err := ps.Get(ctx, platform.KNL()); !errors.Is(err, boom) {
		t.Fatalf("failing source: err = %v, want boom", err)
	}
	if _, hit, err := ps.Get(ctx, platform.KNL()); err != nil || hit {
		t.Fatalf("Get after a failed run = (hit=%v, %v), want a fresh miss", hit, err)
	}
	if calls["SKL"] != 1 || calls["KNL"] != 2 {
		t.Fatalf("source calls = %v, want SKL once and KNL twice", calls)
	}
}

// TestCharacterizeDeterministicAcrossWorkers: the sweep must produce a
// byte-identical serialized profile whether the operating points run
// serially or across a pool — the engine's determinism bar.
func TestCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	p := platform.SKL()
	render := func(workers int) string {
		opts := fastOpts
		opts.Workers = workers
		c, err := Characterize(p, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := NewProfile(p, c).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	for _, workers := range []int{2, 4, 8} {
		if got := render(workers); got != serial {
			t.Fatalf("profile differs at %d workers:\nserial:\n%s\nparallel:\n%s", workers, serial, got)
		}
	}
}

// TestCalibrationAgainstPaperAnchors verifies the simulated loaded-latency
// curves land near the (bandwidth, latency) pairs the paper reports from
// X-Mem on real hardware (Tables IV–IX). This is the shape contract the
// whole reproduction rests on. Skipped in -short mode: full-node
// characterizations take seconds.
func TestCalibrationAgainstPaperAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-node characterization is slow")
	}
	anchors := map[string][]struct {
		bw, lat, tol float64
	}{
		"SKL": {
			{3.2, 82, 0.10},
			{37.9, 93, 0.15},
			{58.2, 100, 0.15},
			{92.9, 117, 0.20},
			{106.9, 145, 0.30},
		},
		"KNL": {
			{26.9, 179, 0.10},
			{122.9, 167, 0.10},
			{233, 180, 0.10},
			{253, 187, 0.10},
			{296, 209, 0.15},
			{344, 238, 0.20},
		},
		"A64FX": {
			{10.8, 142, 0.10},
			{93.9, 145, 0.10},
			{271, 156, 0.10},
			{418, 165, 0.15},
			{575, 179, 0.20},
			{649, 188, 0.20},
			{788, 280, 0.30},
		},
	}
	for _, p := range platform.All() {
		c, err := Characterize(p, Options{ProbeOps: 200, WarmupOps: 40})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, a := range anchors[p.Name] {
			got := c.LatencyAt(a.bw)
			if got < a.lat*(1-a.tol) || got > a.lat*(1+a.tol) {
				t.Errorf("%s: latency at %.1f GB/s = %.1f ns, paper %.0f ns (tol ±%.0f%%)",
					p.Name, a.bw, got, a.lat, a.tol*100)
			}
		}
		// The achievable peak must stay below the theoretical peak and
		// above the paper's highest observed utilization.
		maxBW := c.MaxBandwidthGBs()
		if maxBW >= p.PeakGBs() {
			t.Errorf("%s: achievable %f ≥ theoretical %f", p.Name, maxBW, p.PeakGBs())
		}
		minAchievable := map[string]float64{"SKL": 106, "KNL": 330, "A64FX": 760}[p.Name]
		if maxBW < minAchievable {
			t.Errorf("%s: achievable peak %.1f below paper's observed %.0f", p.Name, maxBW, minAchievable)
		}
	}
}

func TestPredictCurveShape(t *testing.T) {
	for _, p := range platform.All() {
		c, err := PredictCurve(p, 16)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// Monotone, anchored near the platform's idle path, saturating
		// below the theoretical peak.
		idleWant := p.Memory.BaseLatencyNs + p.Memory.RowMissNs +
			p.Memory.TransferNs(p.LineBytes) + p.CyclesNs(p.L1.HitCycles+p.L2.HitCycles)
		if math.Abs(c.IdleLatencyNs()-idleWant) > 2 {
			t.Errorf("%s predicted idle %.1f, want %.1f", p.Name, c.IdleLatencyNs(), idleWant)
		}
		if c.MaxBandwidthGBs() >= p.PeakGBs() {
			t.Errorf("%s predicted achievable %.1f ≥ theoretical %.1f", p.Name, c.MaxBandwidthGBs(), p.PeakGBs())
		}
		prev := 0.0
		for _, pt := range c.Points() {
			if pt.LatencyNs < prev {
				t.Fatalf("%s predicted curve not monotone", p.Name)
			}
			prev = pt.LatencyNs
		}
	}
}

// TestPredictedVsMeasuredCurve is the analytic-vs-DES ablation: at
// moderate utilization the open-loop prediction and the measured closed-
// loop curve must agree within a modest factor.
func TestPredictedVsMeasuredCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow")
	}
	p := platform.SKL()
	measured, err := Characterize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := PredictCurve(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, bw := range []float64{10, 40, 70, 90} {
		mp, pp := measured.LatencyAt(bw), predicted.LatencyAt(bw)
		if ratio := pp / mp; ratio < 0.7 || ratio > 1.45 {
			t.Errorf("at %.0f GB/s: predicted %.1f vs measured %.1f ns (ratio %.2f)", bw, pp, mp, ratio)
		}
	}
}
