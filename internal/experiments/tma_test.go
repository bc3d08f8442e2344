package experiments

import (
	"math"
	"strings"
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

func TestTMAAnalyzeValidation(t *testing.T) {
	if _, err := analyzeTMA(platform.SKL(), nil); err == nil {
		t.Fatal("nil result accepted")
	}
	bad := platform.SKL()
	bad.Cores = 0
	if _, err := analyzeTMA(bad, &sim.Result{}); err == nil {
		t.Fatal("invalid platform accepted")
	}
}

func TestTMATopLevelSumsToOne(t *testing.T) {
	p := platform.SKL()
	for _, res := range []*sim.Result{
		{TotalGBs: 100, L1FullStallFrac: 0.5, MeanLoadLatencyNs: 120},
		{TotalGBs: 5, L1FullStallFrac: 0.0, MeanLoadLatencyNs: 20},
		{TotalGBs: 120, L1FullStallFrac: 1.5, MeanLoadLatencyNs: 200}, // clamped
	} {
		b, err := analyzeTMA(p, res)
		if err != nil {
			t.Fatal(err)
		}
		sum := b.Retiring + b.FrontEnd + b.BadSpeculation + b.BackEnd
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("top-level sums to %v", sum)
		}
		if b.Retiring < 0 {
			t.Errorf("negative retiring: %+v", b)
		}
	}
}

// TestTMAPrefetchedStreamReportsTinyLatency reproduces the paper's hpcg
// anecdote: at ~86%% of peak bandwidth the derived average latency reads as
// a few tens of cycles because demand loads hit prefetched lines, while the
// true loaded latency is ~378 cycles.
func TestTMAPrefetchedStreamReportsTinyLatency(t *testing.T) {
	p := platform.SKL()
	res := &sim.Result{
		TotalGBs:          110,
		MeanLoadLatencyNs: 15, // demand loads hit L2 thanks to the prefetcher
		MeanDRAMLatencyNs: 180,
	}
	b, err := analyzeTMA(p, res)
	if err != nil {
		t.Fatal(err)
	}
	if b.AvgLoadLatencyCycles > 64 {
		t.Errorf("TMA latency = %.0f cycles; the critique requires a misleadingly small value", b.AvgLoadLatencyCycles)
	}
	trueCycles := p.NsCycles(res.MeanDRAMLatencyNs)
	if trueCycles < 300 {
		t.Fatalf("test setup wrong: true latency %.0f cycles", trueCycles)
	}
	if b.AvgLoadLatencyCycles > trueCycles/5 {
		t.Errorf("TMA latency %.0f not far below true %.0f", b.AvgLoadLatencyCycles, trueCycles)
	}
}

// TestTMABandwidthLatencySplitIsThresholdDriven: the split flips with MC
// occupancy, not with the actual latency behaviour — the §I SNAP critique
// (27%% bandwidth / 23%% latency with no clear guidance).
func TestTMABandwidthLatencySplitIsThresholdDriven(t *testing.T) {
	p := platform.SKL()
	low, err := analyzeTMA(p, &sim.Result{TotalGBs: 30, L1FullStallFrac: 0.4, MeanLoadLatencyNs: 150})
	if err != nil {
		t.Fatal(err)
	}
	high, err := analyzeTMA(p, &sim.Result{TotalGBs: 120, L1FullStallFrac: 0.4, MeanLoadLatencyNs: 150})
	if err != nil {
		t.Fatal(err)
	}
	if high.BandwidthBound <= low.BandwidthBound {
		t.Errorf("bandwidth-bound fraction did not rise with MC occupancy: %.2f vs %.2f",
			high.BandwidthBound, low.BandwidthBound)
	}
	// Same latency input, completely different diagnosis: the ambiguity.
	if math.Abs(low.AvgLoadLatencyCycles-high.AvgLoadLatencyCycles) > 1e-9 {
		t.Error("latency metric changed although only bandwidth changed")
	}
	// Near the threshold, both categories get substantial weight — the
	// "27% bandwidth / 23% latency" unclear-guidance zone.
	mid, err := analyzeTMA(p, &sim.Result{TotalGBs: 0.72 * p.PeakGBs(), L1FullStallFrac: 0.5, MeanLoadLatencyNs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if mid.BandwidthBound < 0.3 || mid.LatencyBound < 0.3 {
		t.Errorf("mid-occupancy split not ambiguous: bw %.2f lat %.2f", mid.BandwidthBound, mid.LatencyBound)
	}
}

func TestTMAMemoryVsCoreBound(t *testing.T) {
	p := platform.KNL()
	memHeavy, _ := analyzeTMA(p, &sim.Result{TotalGBs: 200, L1FullStallFrac: 0.7, MeanLoadLatencyNs: 170})
	compute, _ := analyzeTMA(p, &sim.Result{TotalGBs: 10, L1FullStallFrac: 0.01, MeanLoadLatencyNs: 30})
	if memHeavy.MemoryBound <= compute.MemoryBound {
		t.Errorf("memory-bound ordering wrong: %.2f vs %.2f", memHeavy.MemoryBound, compute.MemoryBound)
	}
	if compute.CoreBound <= memHeavy.CoreBound {
		t.Errorf("core-bound ordering wrong")
	}
}

func TestTMASummaryRenders(t *testing.T) {
	b, _ := analyzeTMA(platform.SKL(), &sim.Result{TotalGBs: 60, L1FullStallFrac: 0.3, MeanLoadLatencyNs: 100})
	s := b.Summary()
	for _, want := range []string{"Retiring", "Back-end", "bandwidth", "latency", "cycles"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q: %s", want, s)
		}
	}
}
