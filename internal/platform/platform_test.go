package platform

import (
	"math"
	"reflect"
	"testing"
)

func TestTableIIIValues(t *testing.T) {
	cases := []struct {
		name            string
		cores           int
		freqGHz         float64
		peakGBs         float64
		l1MSHRs, l2MSHR int
		lineBytes       int
	}{
		{"SKL", 24, 2.1, 128, 10, 16, 64},
		{"KNL", 64, 1.4, 400, 12, 32, 64},
		{"A64FX", 48, 1.8, 1024, 12, 20, 256},
	}
	for _, c := range cases {
		p, err := ByName(c.name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", c.name, err)
		}
		if p.Cores != c.cores {
			t.Errorf("%s cores = %d, want %d", c.name, p.Cores, c.cores)
		}
		if math.Abs(p.FreqHz-c.freqGHz*1e9) > 1 {
			t.Errorf("%s freq = %v, want %v GHz", c.name, p.FreqHz, c.freqGHz)
		}
		if p.PeakGBs() != c.peakGBs {
			t.Errorf("%s peak = %v, want %v", c.name, p.PeakGBs(), c.peakGBs)
		}
		if p.L1.MSHRs != c.l1MSHRs || p.L2.MSHRs != c.l2MSHR {
			t.Errorf("%s MSHRs = %d/%d, want %d/%d", c.name, p.L1.MSHRs, p.L2.MSHRs, c.l1MSHRs, c.l2MSHR)
		}
		if p.LineBytes != c.lineBytes {
			t.Errorf("%s line = %d, want %d", c.name, p.LineBytes, c.lineBytes)
		}
	}
}

func TestAllPlatformsValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("EPYC"); err == nil {
		t.Fatal("ByName(EPYC) succeeded, want error")
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Platform)
	}{
		{"zero cores", func(p *Platform) { p.Cores = 0 }},
		{"zero freq", func(p *Platform) { p.FreqHz = 0 }},
		{"zero smt", func(p *Platform) { p.SMTWays = 0 }},
		{"non-pow2 line", func(p *Platform) { p.LineBytes = 96 }},
		{"zero L1 mshr", func(p *Platform) { p.L1.MSHRs = 0 }},
		{"L2 below L1 mshr", func(p *Platform) { p.L2.MSHRs = p.L1.MSHRs - 1 }},
		{"zero channels", func(p *Platform) { p.Memory.Channels = 0 }},
		{"zero peak", func(p *Platform) { p.Memory.TheoreticalGBs = 0 }},
		{"zero window", func(p *Platform) { p.DemandWindow = 0 }},
		{"tiny cache", func(p *Platform) { p.L1.SizeBytes = 64 }},
	}
	for _, m := range mutations {
		p := SKL()
		m.mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken config", m.name)
		}
	}
}

func TestClockAndConversions(t *testing.T) {
	p := SKL()
	// 2.1 GHz: 378 cycles = 180ns (the paper's SKL loaded-latency example).
	if ns := p.CyclesNs(378); math.Abs(ns-180) > 0.5 {
		t.Errorf("CyclesNs(378) = %v, want ~180", ns)
	}
	if cy := p.NsCycles(180); math.Abs(cy-378) > 0.5 {
		t.Errorf("NsCycles(180) = %v, want ~378", cy)
	}
	if p.Clock().Period() <= 0 {
		t.Error("clock period not positive")
	}
}

func TestMemoryGeometry(t *testing.T) {
	p := SKL()
	// SKL uses the effective (sustained) per-channel rate, not the
	// theoretical 21.3 GB/s.
	if got := p.Memory.ChannelGBs(); got != p.Memory.BusGBsPerChannel {
		t.Errorf("SKL channel bw = %v, want override %v", got, p.Memory.BusGBsPerChannel)
	}
	if got := p.Memory.TransferNs(64); math.Abs(got-64/p.Memory.ChannelGBs()) > 1e-9 {
		t.Errorf("SKL line transfer = %v ns", got)
	}
	// Without an override, the theoretical split applies.
	m := MemoryConfig{TheoreticalGBs: 120, Channels: 6}
	if got := m.ChannelGBs(); got != 20 {
		t.Errorf("default channel bw = %v, want 20", got)
	}
	if got := SKL().L1.Sets(64); got != 64 {
		t.Errorf("SKL L1 sets = %d, want 64", got)
	}
}

func TestIdleLatencyBallpark(t *testing.T) {
	// The uncontended load-to-use path (L1 and L2 lookups + base + row miss
	// + one line transfer) should land near the paper's observed low-load
	// latencies: ~82ns SKL, ~167ns KNL, ~142ns A64FX (CoMD/SNAP rows of
	// Tables VII and IX).
	want := map[string]float64{"SKL": 82, "KNL": 167, "A64FX": 142}
	for _, p := range All() {
		m := p.Memory
		idle := m.BaseLatencyNs + m.RowMissNs + m.TransferNs(p.LineBytes) +
			p.CyclesNs(p.L1.HitCycles+p.L2.HitCycles)
		if math.Abs(idle-want[p.Name]) > 0.05*want[p.Name] {
			t.Errorf("%s idle estimate = %.1f ns, want within 5%% of %.0f", p.Name, idle, want[p.Name])
		}
	}
}

func TestA64FXHasNoSMT(t *testing.T) {
	if A64FX().SMTWays != 1 {
		t.Fatal("A64FX must not support SMT (paper §IV-A)")
	}
	if KNL().SMTWays != 4 {
		t.Fatal("KNL supports 4-way hyperthreading")
	}
	if SKL().SMTWays != 2 {
		t.Fatal("SKL supports 2-way hyperthreading")
	}
}

func TestGPUExtensionPlatform(t *testing.T) {
	g := GPU()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The GPU is a §IV-H extension, not one of the paper's machines.
	for _, p := range All() {
		if p.Name == g.Name {
			t.Fatal("GPU must not be in All() (it is not in Table III)")
		}
	}
	if _, err := ByName("GPU"); err == nil {
		t.Fatal("ByName must resolve only Table III machines")
	}
	if g.SMTWays < 16 {
		t.Fatal("GPU latency hiding needs many resident warps")
	}
	if g.Prefetcher.Streams != 0 {
		t.Fatal("GPUs hide latency with warps, not stream prefetchers")
	}
}

func TestKNLCacheModePlatform(t *testing.T) {
	p := KNLCacheMode()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MemCache == nil || p.MemCache.Fast.Tech != "MCDRAM" {
		t.Fatal("cache mode must front DDR with MCDRAM")
	}
	if p.Memory.Tech != "DDR4" {
		t.Fatalf("backing memory = %s, want DDR4", p.Memory.Tech)
	}
	// The core side is unchanged from flat-mode KNL.
	flat := KNL()
	if p.Cores != flat.Cores || p.L1.MSHRs != flat.L1.MSHRs || p.L2.MSHRs != flat.L2.MSHRs {
		t.Fatal("cache mode must not change the core side")
	}
	// Validation catches broken cache configs.
	p.MemCache.SizeBytes = 8
	if err := p.Validate(); err == nil {
		t.Fatal("tiny memory-side cache accepted")
	}
	p = KNLCacheMode()
	p.MemCache.Fast.Channels = 0
	if err := p.Validate(); err == nil {
		t.Fatal("broken fast tier accepted")
	}
}

// TestByNameBuildsAFreshCopy: ByName returns the same machine All() does,
// as a new value on every call (callers mutate ablation copies), and keeps
// its error for an unknown name.
func TestByNameBuildsAFreshCopy(t *testing.T) {
	for _, want := range All() {
		a, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", want.Name, err)
		}
		b, _ := ByName(want.Name)
		if a == b {
			t.Errorf("ByName(%s) returned the same pointer twice", want.Name)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("ByName(%s) = %+v, want All()'s %+v", want.Name, a, want)
		}
		a.Cores = 1
		if b.Cores == 1 {
			t.Errorf("ByName(%s): mutating one copy changed another", want.Name)
		}
	}
	_, err := ByName("EPYC")
	if err == nil || err.Error() != `platform: unknown platform "EPYC" (want SKL, KNL or A64FX)` {
		t.Fatalf("ByName(EPYC) error = %v", err)
	}
}
