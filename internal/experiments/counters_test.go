package experiments

import (
	"strings"
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

func TestTableIMatrix(t *testing.T) {
	models := vendorModels()
	if len(models) != 4 {
		t.Fatalf("Table I surveys 4 vendors, got %d", len(models))
	}
	byVendor := map[string]vendorModel{}
	for _, m := range models {
		byVendor[m.Vendor] = m
	}
	// Table I rows.
	cases := []struct {
		vendor                       string
		stalls, l1full, l2full, mlat visibility
	}{
		{"Intel", visLimited, visYes, visNo, visLimited},
		{"AMD", visLimited, visYes, visNo, visLimited},
		{"Cavium", visVeryLimited, visNo, visNo, visNo},
		{"Fujitsu", visLimited, visNo, visNo, visNo},
	}
	for _, c := range cases {
		m, ok := byVendor[c.vendor]
		if !ok {
			t.Fatalf("vendor %s missing", c.vendor)
		}
		if m.StallBreakdown != c.stalls || m.L1MSHRQFull != c.l1full ||
			m.L2MSHRQFull != c.l2full || m.MemoryLatency != c.mlat {
			t.Errorf("%s row = %v/%v/%v/%v, want %v/%v/%v/%v", c.vendor,
				m.StallBreakdown, m.L1MSHRQFull, m.L2MSHRQFull, m.MemoryLatency,
				c.stalls, c.l1full, c.l2full, c.mlat)
		}
	}
	// No vendor exposes L2-MSHRQ-full stalls — the gap the metric fills.
	for _, m := range models {
		if m.L2MSHRQFull != visNo {
			t.Errorf("%s claims L2 MSHRQ-full visibility; Table I says none do", m.Vendor)
		}
	}
}

func TestModelForPlatforms(t *testing.T) {
	for _, c := range []struct {
		plat, vendor string
		eventSub     string
	}{
		{"SKL", "Intel", "L3_MISS_LOCAL"},
		{"KNL", "Intel", "MCDRAM"},
		{"A64FX", "Fujitsu", "BUS_READ_TOTAL_MEM"},
	} {
		m, err := vendorModelFor(c.plat)
		if err != nil {
			t.Fatalf("vendorModelFor(%s): %v", c.plat, err)
		}
		if m.Vendor != c.vendor {
			t.Errorf("%s vendor = %s, want %s", c.plat, m.Vendor, c.vendor)
		}
		found := false
		for _, e := range m.BandwidthEvents {
			if strings.Contains(e, c.eventSub) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s events %v missing %q", c.plat, m.BandwidthEvents, c.eventSub)
		}
	}
	if _, err := vendorModelFor("POWER9"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

// TestThresholdCounterCritique reproduces §II: for a random-access run with
// a true loaded latency of ~378 cycles, the threshold counter reports the
// majority of loads above the 512-cycle bin — more than the true latency
// justifies — while for a prefetched streaming run it reports almost
// everything as fast even at full memory load.
func TestThresholdCounterCritique(t *testing.T) {
	p := platform.SKL()
	intel, _ := vendorModelFor("SKL")

	// ISx-like: true mean load-to-use ≈ 180ns = 378 cycles.
	random := &sim.Result{MeanLoadLatencyNs: 180}
	bins, err := thresholdCounter(intel, random, p, true)
	if err != nil {
		t.Fatal(err)
	}
	top := bins[len(bins)-1]
	if top.ThresholdCycles != 512 {
		t.Fatalf("top bin = %d, want 512", top.ThresholdCycles)
	}
	if top.Fraction < 0.55 {
		t.Errorf("random access: %.0f%% of loads above 512cy, want a misleading majority (paper: 75%%)",
			100*top.Fraction)
	}

	// hpcg-like: prefetched streams complete near cache latency (~15ns =
	// 32 cycles) even though the machine runs at peak bandwidth.
	stream := &sim.Result{MeanLoadLatencyNs: 15}
	bins, err = thresholdCounter(intel, stream, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if f := bins[len(bins)-1].Fraction; f > 0.05 {
		t.Errorf("prefetched stream: %.0f%% above 512cy, want ~none (counter blind to loaded latency)", 100*f)
	}

	// Monotone: higher thresholds cannot have larger fractions.
	for i := 1; i < len(bins); i++ {
		if bins[i].Fraction > bins[i-1].Fraction {
			t.Fatalf("bin fractions not monotone: %+v", bins)
		}
	}

	// ARM has no such counter at all.
	arm, _ := vendorModelFor("A64FX")
	if _, err := thresholdCounter(arm, random, p, true); err == nil {
		t.Fatal("A64FX produced threshold samples; Table I says it cannot")
	}
}

func TestVisibilityString(t *testing.T) {
	for v, want := range map[visibility]string{visNo: "No", visVeryLimited: "Very limited", visLimited: "Limited", visYes: "Yes"} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}
