package service

import (
	"math"
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/stream/streamtest"
	"littleslaw/internal/xmem"
)

func TestPredictValidation(t *testing.T) {
	if _, err := predict(platform.SKL(), streamtest.Curve(), 0, 1, false); err == nil {
		t.Fatal("zero concurrency accepted")
	}
}

func TestMSHRCapBinds(t *testing.T) {
	p := platform.SKL()
	// ISx-like: 12 exposable misses per thread, random access → capped at
	// the 10 L1 MSHRs; equilibrium near the paper's 106.9 GB/s @ 145 ns.
	pred, err := predict(p, streamtest.Curve(), 12, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Limited != "l1-mshr" || pred.PerCoreMLP != 10 {
		t.Fatalf("limited = %s, MLP = %v; want l1-mshr cap at 10", pred.Limited, pred.PerCoreMLP)
	}
	if math.Abs(pred.BandwidthGBs-106.9) > 8 {
		t.Errorf("ISx-like equilibrium = %.1f GB/s, want ≈107 (paper)", pred.BandwidthGBs)
	}
	if pred.LatencyNs < 120 || pred.LatencyNs > 175 {
		t.Errorf("equilibrium latency = %.0f ns, want ≈145", pred.LatencyNs)
	}
}

func TestWindowBindsWhenBelowCap(t *testing.T) {
	p := platform.SKL()
	// PENNANT-like scalar: 2.3 per thread, far below any MSHR file.
	pred, err := predict(p, streamtest.Curve(), 2.3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Limited != "window" {
		t.Fatalf("limited = %s, want window", pred.Limited)
	}
	if math.Abs(pred.BandwidthGBs-37.9) > 6 {
		t.Errorf("PENNANT-like equilibrium = %.1f GB/s, want ≈38", pred.BandwidthGBs)
	}
}

func TestSMTDoublesConcurrencyUntilCap(t *testing.T) {
	p := platform.SKL()
	one, _ := predict(p, streamtest.Curve(), 3, 1, true)
	two, _ := predict(p, streamtest.Curve(), 3, 2, true)
	if two.PerCoreMLP != 6 || one.PerCoreMLP != 3 {
		t.Fatalf("SMT concurrency = %v/%v, want 3/6", one.PerCoreMLP, two.PerCoreMLP)
	}
	if s := two.BandwidthGBs / one.BandwidthGBs; s < 1.5 || s > 2.05 {
		t.Errorf("SMT speedup = %.2f, want near 2 below the cap", s)
	}
	// At the cap, more threads stop helping.
	four, _ := predict(p, streamtest.Curve(), 8, 2, true)
	if four.Limited != "l1-mshr" {
		t.Fatal("16 per-core misses should cap at the L1 file")
	}
}

// TestAnalyticMatchesDESOnISx is the DESIGN.md ablation: the closed-form
// equilibrium must agree with the measured X-Mem characterization within
// tolerance, since both describe the same machine.
func TestAnalyticMatchesDESOnISx(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow")
	}
	p := platform.SKL()
	curve, err := xmem.ProfileFor(p)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predict(p, curve, 12, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// The DES-generated Table IV ISx/SKL row lands at ~108 GB/s.
	if pred.BandwidthGBs < 95 || pred.BandwidthGBs > 120 {
		t.Errorf("analytic ISx/SKL = %.1f GB/s, DES measures ≈108", pred.BandwidthGBs)
	}
}
