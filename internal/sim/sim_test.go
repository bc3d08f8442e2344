package sim

import (
	"math"
	"math/rand"
	"testing"

	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
)

// randGen emits n random-line loads over a footprint (an ISx-like pattern).
type randGen struct {
	rng  *rand.Rand
	n    int
	mask uint64
	gap  float64
}

func (g *randGen) Next() (cpu.Op, bool) {
	if g.n <= 0 {
		return cpu.Op{}, false
	}
	g.n--
	return cpu.Op{Addr: (g.rng.Uint64() & g.mask) &^ 63, Kind: memsys.Load, GapCycles: g.gap, Work: 1}, true
}

// streamGen emits sequential loads (an HPCG-like pattern).
type streamGen struct {
	addr, step uint64
	n          int
	gap        float64
}

func (g *streamGen) Next() (cpu.Op, bool) {
	if g.n <= 0 {
		return cpu.Op{}, false
	}
	g.n--
	a := g.addr
	g.addr += g.step
	return cpu.Op{Addr: a, Kind: memsys.Load, GapCycles: g.gap, Work: 1}, true
}

func randFactory(seed int64, n int, gap float64) func(core, thread int) cpu.Generator {
	return func(core, thread int) cpu.Generator {
		return &randGen{
			rng:  rand.New(rand.NewSource(seed + int64(core*131+thread))),
			n:    n,
			mask: 1<<28 - 1,
			gap:  gap,
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	p := platform.SKL()
	if _, err := Run(Config{Plat: p}); err == nil {
		t.Fatal("missing generator factory accepted")
	}
	if _, err := Run(Config{Plat: p, NewGen: randFactory(1, 10, 0), ThreadsPerCore: 4}); err == nil {
		t.Fatal("SMT above platform limit accepted")
	}
}

func TestRandomAccessSaturatesL1MSHRs(t *testing.T) {
	p := platform.SKL()
	res, err := Run(Config{
		Plat:   p,
		Cores:  8, // scaled node: keeps the test fast
		NewGen: randFactory(7, 4000, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Random loads with a deep window must pin the L1 MSHR file near its
	// capacity...
	if res.TrueL1Occ < 0.75*float64(p.L1.MSHRs) {
		t.Errorf("L1 occupancy = %.2f, want near capacity %d", res.TrueL1Occ, p.L1.MSHRs)
	}
	if res.L1PeakOcc > p.L1.MSHRs {
		t.Errorf("L1 peak %d exceeds capacity %d", res.L1PeakOcc, p.L1.MSHRs)
	}
	// ...and essentially no memory reads come from the prefetcher.
	if res.PrefetchedReadFraction > 0.1 {
		t.Errorf("prefetched fraction = %.2f on random traffic", res.PrefetchedReadFraction)
	}
	if res.L1FullStallFrac == 0 {
		t.Error("no L1 MSHR-full stalls under random oversubscription")
	}
	if res.ReadGBs <= 0 || res.Throughput <= 0 {
		t.Errorf("degenerate measurements: %+v", res)
	}
}

// The paper's central consistency claim: the Little's-Law estimate computed
// from bandwidth and true mean latency matches the simulator's true MSHR
// occupancy.
func TestLittlesLawTracksTrueOccupancy(t *testing.T) {
	p := platform.SKL()
	res, err := Run(Config{
		Plat:   p,
		Cores:  8,
		NewGen: randFactory(21, 4000, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// n = BW × lat / cls per core. Use read bandwidth (demand misses all
	// read) and the DRAM mean latency. The L1 MSHR residency additionally
	// includes the L1→L2→L3 segments, so allow a modest margin.
	est := res.ReadGBs * 1e9 * res.MeanDRAMLatencyNs * 1e-9 / float64(p.LineBytes) / float64(res.Cores)
	if math.Abs(est-res.TrueL1Occ)/res.TrueL1Occ > 0.35 {
		t.Errorf("Little estimate %.2f vs true occupancy %.2f diverge", est, res.TrueL1Occ)
	}
}

func TestStreamingTriggersPrefetcher(t *testing.T) {
	p := platform.SKL()
	res, err := Run(Config{
		Plat:  p,
		Cores: 8,
		NewGen: func(core, thread int) cpu.Generator {
			return &streamGen{addr: uint64(core) << 32, step: 64, n: 6000, gap: 2}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchedReadFraction < 0.4 {
		t.Errorf("prefetched fraction = %.2f on pure streams, want most reads prefetched",
			res.PrefetchedReadFraction)
	}
	if res.HWPrefetchIssued == 0 {
		t.Error("hardware prefetcher never fired")
	}
	// Streaming rows should show DRAM row-buffer locality well above the
	// random-access case.
	if res.RowHitFraction < 0.2 {
		t.Errorf("row hit fraction = %.2f, want some locality", res.RowHitFraction)
	}
}

func TestSMTIncreasesOccupancy(t *testing.T) {
	p := platform.KNL()
	run := func(threads int) *Result {
		res, err := Run(Config{
			Plat:           p,
			Cores:          8,
			ThreadsPerCore: threads,
			Window:         6,
			NewGen:         randFactory(3, 3000, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r2 := run(2)
	if r2.TrueL1Occ <= r1.TrueL1Occ {
		t.Errorf("2-way SMT occupancy %.2f not above 1-way %.2f", r2.TrueL1Occ, r1.TrueL1Occ)
	}
	if r2.Throughput <= r1.Throughput {
		t.Errorf("2-way SMT throughput %.3g not above 1-way %.3g", r2.Throughput, r1.Throughput)
	}
}

func TestDefaultsFillIn(t *testing.T) {
	p := platform.A64FX()
	res, err := Run(Config{
		Plat:   p,
		Cores:  4,
		NewGen: randFactory(5, 1500, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Platform != "A64FX" || res.Cores != 4 || res.ThreadsPerCore != 1 {
		t.Fatalf("unexpected echo: %+v", res)
	}
	if res.WindowPs <= 0 {
		t.Fatal("empty measurement window")
	}
}

func TestTinyRunFallsBackToWholeWindow(t *testing.T) {
	p := platform.SKL()
	res, err := Run(Config{
		Plat:   p,
		Cores:  2,
		NewGen: randFactory(9, 20, 1), // far below the warmup threshold
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Work <= 0 {
		t.Fatalf("tiny run measured no work: %+v", res)
	}
}

func TestSMTShareOverride(t *testing.T) {
	p := platform.KNL()
	// A compute-paced workload: throughput scales with the SMT gap factor.
	mk := func(share, exponent float64) float64 {
		res, err := Run(Config{
			Plat:           p,
			Cores:          4,
			ThreadsPerCore: 2,
			SMTShare:       share,
			SMTExponent:    exponent,
			NewGen: func(coreID, threadID int) cpu.Generator {
				n := 1200
				return cpu.GeneratorFunc(func() (cpu.Op, bool) {
					if n <= 0 {
						return cpu.Op{}, false
					}
					n--
					return cpu.Op{Addr: uint64(coreID+1)<<34 + uint64(n%4)*64,
						Kind: memsys.Load, GapCycles: 200, Work: 1}, true
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	free := mk(0.5, 0)   // factor 0.5×2^(2/3) < 1 → threads free
	serial := mk(1.0, 1) // factor 2 → strict sharing
	if free < 1.8*serial {
		t.Fatalf("SMT share override ineffective: free %.3g vs serial %.3g", free, serial)
	}
}

func TestConfigureHierarchyHook(t *testing.T) {
	p := platform.SKL()
	hooked := 0
	_, err := Run(Config{
		Plat:   p,
		Cores:  3,
		NewGen: randFactory(11, 300, 1),
		ConfigureHierarchy: func(h *memsys.Hierarchy) {
			hooked++
			h.NoCoalesce = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked != 3 {
		t.Fatalf("hook ran %d times, want once per core", hooked)
	}
}

func TestMeanLoadLatencyReported(t *testing.T) {
	p := platform.SKL()
	res, err := Run(Config{Plat: p, Cores: 4, NewGen: randFactory(13, 1500, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLoadLatencyNs < 50 {
		t.Fatalf("mean load latency = %.1f ns, implausibly low for random misses", res.MeanLoadLatencyNs)
	}
	// Load-to-use is at least the DRAM round trip for uncached traffic.
	if res.MeanLoadLatencyNs < 0.8*res.MeanDRAMLatencyNs {
		t.Fatalf("load latency %.1f below DRAM latency %.1f", res.MeanLoadLatencyNs, res.MeanDRAMLatencyNs)
	}
}
