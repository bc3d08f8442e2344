package experiments

import (
	"strings"
	"testing"

	"littleslaw/internal/core"
	"littleslaw/internal/platform"
	"littleslaw/internal/runner"
)

// paperProfiles lets the experiment tests run without the (slow) X-Mem
// characterization: the curves are the paper's published values
// (PaperProfileFor, shared with the golden harness and the service's
// fast-start mode).
var paperProfiles = PaperProfileFor

func fastRunner() *Runner {
	return NewRunner(Options{Scale: 0.1, ProfileFor: paperProfiles})
}

func TestTableIDs(t *testing.T) {
	ids := TableIDs()
	if len(ids) != 6 || ids[0] != "IV" || ids[5] != "IX" {
		t.Fatalf("TableIDs = %v", ids)
	}
	for _, id := range ids {
		if _, ok := tableSpecs[id]; !ok {
			t.Errorf("no spec for table %s", id)
		}
	}
}

func TestUnknownTable(t *testing.T) {
	if _, err := fastRunner().Table("XL"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestTableIVShape regenerates the ISx table at reduced scale on one
// platform and checks the structural shape: row order, saturation at the
// L1 MSHR file, and the recipe verdicts of the published ladder.
func TestTableIVShapeSKL(t *testing.T) {
	r := NewRunner(Options{Scale: 0.1, Platforms: []string{"SKL"}, ProfileFor: paperProfiles})
	tab, err := r.Table("IV")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Workload != "ISx" || tab.Routine != "count_local_keys" {
		t.Fatalf("table identity wrong: %+v", tab)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("SKL ISx rows = %d, want 2", len(tab.Rows))
	}
	base := tab.Rows[0]
	if base.Source != "base" || base.NextOpt != "vectorization" {
		t.Fatalf("row 0 = %+v", base)
	}
	// Occupancy pinned at the L1 MSHR file; vectorization blocked and
	// measured useless — the paper's headline SKL result.
	if base.Occ < 8.5 || base.Occ > 12.5 {
		t.Errorf("ISx/SKL occupancy = %.2f, want ≈10", base.Occ)
	}
	if base.Stance != core.Discourage {
		t.Errorf("vectorization stance = %v, want discourage", base.Stance)
	}
	if base.Speedup > 1.1 {
		t.Errorf("vectorization speedup = %.2f, want ≈1.0", base.Speedup)
	}
	if base.PaperBW != 106.9 || base.PaperOcc != 10.1 {
		t.Errorf("paper echo wrong: %+v", base)
	}
}

// TestRunCacheSharesConfigs: a row and its successor share runs. SKL Table
// IV has two rows, each naming a next configuration, and needs exactly three
// simulations: base/1t, vect/1t, vect/2t. A second regeneration needs none.
func TestRunCacheSharesConfigs(t *testing.T) {
	sims := runner.New(0)
	r := NewRunner(Options{Scale: 0.03, Platforms: []string{"SKL"}, ProfileFor: paperProfiles, SimRunner: sims})
	if _, err := r.Table("IV"); err != nil {
		t.Fatal(err)
	}
	first := sims.Stats().Misses
	if first != 3 {
		t.Fatalf("Table IV/SKL ran %d simulations, want 3 distinct configs", first)
	}
	if _, err := r.Table("IV"); err != nil {
		t.Fatal(err)
	}
	if got := sims.Stats().Misses - first; got != 0 {
		t.Fatalf("a second Table IV ran %d more simulations, want 0", got)
	}
}

func TestFigure2(t *testing.T) {
	r := NewRunner(Options{Scale: 0.1, ProfileFor: paperProfiles})
	m, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if m.Platform != "KNL" {
		t.Fatalf("Figure 2 is a KNL plot, got %s", m.Platform)
	}
	if len(m.Points) != 2 {
		t.Fatalf("points = %d, want O and O1", len(m.Points))
	}
	// O1 must outperform O (it broke through the L1-MSHR ceiling).
	if m.Points[1].GFLOPs <= m.Points[0].GFLOPs {
		t.Errorf("optimized point %.1f not above baseline %.1f", m.Points[1].GFLOPs, m.Points[0].GFLOPs)
	}
	// The baseline's bandwidth binds near the L1 ceiling; find it.
	var l1 float64
	for _, c := range m.Ceilings {
		if c.Name == "L1 MSHRs" {
			l1 = c.BandwidthGBs
		}
	}
	if l1 == 0 {
		t.Fatal("no L1 MSHR ceiling in Figure 2")
	}
	baseBW := m.Points[0].GFLOPs / m.Points[0].Intensity
	if baseBW > 1.15*l1 {
		t.Errorf("baseline bandwidth %.1f far above the L1 ceiling %.1f", baseBW, l1)
	}
}

func TestTMACritiques(t *testing.T) {
	out, err := fastRunner().TMACritiques()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("critiques = %d, want SNAP and HPCG", len(out))
	}
	for _, c := range out {
		if c.TMA == nil || c.Report == nil {
			t.Fatalf("%s: missing views", c.Case)
		}
	}
	// The HPCG case: TMA's derived latency far below the true loaded one.
	var hpcg TMACritique
	for _, c := range out {
		if c.Case == "HPCG" {
			hpcg = c
		}
	}
	p, _ := platform.ByName("SKL")
	trueCy := p.NsCycles(hpcg.TrueLoadedLatencyNs)
	// At test scale the contrast is softer than the paper's 32-vs-378
	// cycles; the invariant is that the demand-sampled latency sits well
	// below the true loaded latency.
	if hpcg.TMA.AvgLoadLatencyCycles > 0.6*trueCy {
		t.Errorf("HPCG: TMA latency %.0f cycles not well below true %.0f (the §II critique)",
			hpcg.TMA.AvgLoadLatencyCycles, trueCy)
	}
}

func TestLatencyCounterCritique(t *testing.T) {
	exp, err := fastRunner().LatencyCounterCritique()
	if err != nil {
		t.Fatal(err)
	}
	top := exp.Samples[len(exp.Samples)-1]
	if top.ThresholdCycles != 512 {
		t.Fatalf("top bin %d", top.ThresholdCycles)
	}
	// The §II numbers: ~75% of loads reported above 512 cycles while the
	// true loaded latency is ~378 cycles (i.e. below the bin).
	if top.Fraction < 0.5 {
		t.Errorf("top-bin fraction = %.2f, want a misleading majority", top.Fraction)
	}
	if exp.TrueLoadedLatencyCy > 512 {
		t.Errorf("true latency %.0f cycles above the top bin; critique setup broken", exp.TrueLoadedLatencyCy)
	}
}

func TestMSHRStalls(t *testing.T) {
	exp, err := fastRunner().MSHRStalls()
	if err != nil {
		t.Fatal(err)
	}
	if exp.PrefL1Occ >= exp.BaseL1Occ {
		t.Errorf("L1 occupancy did not drop: %.2f vs %.2f", exp.PrefL1Occ, exp.BaseL1Occ)
	}
	if exp.PrefL2Occ <= exp.BaseL2Occ {
		t.Errorf("L2 occupancy did not rise: %.2f vs %.2f", exp.PrefL2Occ, exp.BaseL2Occ)
	}
	if exp.Speedup < 1.05 {
		t.Errorf("prefetch speedup = %.2f, want ≥1.05 (paper: 1.3)", exp.Speedup)
	}
}

func TestDescribeStaticTables(t *testing.T) {
	for id, want := range map[string]string{
		"I":   "Cavium",
		"II":  "dim3_sweep",
		"III": "A64FX",
	} {
		s, err := DescribeStatic(id)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, want) {
			t.Errorf("table %s missing %q:\n%s", id, want, s)
		}
	}
	if _, err := DescribeStatic("IV"); err == nil {
		t.Fatal("dynamic table accepted as static")
	}
}

// TestIdleLatencyAblation: the §III-B claim — idle latency underestimates
// the occupancy and (on the saturated SKL case) flips the recipe decision.
func TestIdleLatencyAblation(t *testing.T) {
	r := NewRunner(Options{Scale: 0.1, Platforms: []string{"SKL"}, ProfileFor: paperProfiles})
	out, err := r.IdleLatencyAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("ablations = %d", len(out))
	}
	a := out[0]
	if a.OccIdle >= a.OccLoaded {
		t.Fatalf("idle-latency occupancy %.2f not below loaded %.2f", a.OccIdle, a.OccLoaded)
	}
	if ratio := a.OccLoaded / a.OccIdle; ratio < 1.3 {
		t.Errorf("underestimate ratio = %.2f, want substantial (paper: up to ~2x)", ratio)
	}
	if !a.DecisionFlips {
		t.Errorf("idle-latency estimate should flip the saturation verdict on ISx/SKL: %+v", a)
	}
}

// TestRunnerCacheIsolatesWorkloads guards against cache-key collisions
// between tables: ISx and CoMD run the same (platform, variant, threads)
// tuple but must never share results.
func TestRunnerCacheIsolatesWorkloads(t *testing.T) {
	r := NewRunner(Options{Scale: 0.1, Platforms: []string{"SKL"}, ProfileFor: paperProfiles})
	isx, err := r.Table("IV")
	if err != nil {
		t.Fatal(err)
	}
	comd, err := r.Table("VII")
	if err != nil {
		t.Fatal(err)
	}
	if isx.Rows[0].BWGBs < 20*comd.Rows[0].BWGBs {
		t.Fatalf("ISx (%.1f GB/s) vs CoMD (%.1f GB/s): results look shared across workloads",
			isx.Rows[0].BWGBs, comd.Rows[0].BWGBs)
	}
}

func TestMSHRSweepScalesBandwidth(t *testing.T) {
	r := fastRunner()
	pts, err := r.MSHRSweep([]int{4, 8, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Bandwidth and true occupancy rise with the MSHR capacity.
	for i := 1; i < len(pts); i++ {
		if pts[i].BandwidthGBs <= pts[i-1].BandwidthGBs {
			t.Errorf("bandwidth did not rise with MSHRs: %+v", pts)
		}
		if pts[i].TrueL1Occ <= pts[i-1].TrueL1Occ {
			t.Errorf("occupancy did not rise with MSHRs: %+v", pts)
		}
	}
	// Roughly linear in the unconstrained region: 12 vs 4 MSHRs ≥ 2x BW.
	if pts[2].BandwidthGBs < 2*pts[0].BandwidthGBs {
		t.Errorf("12 vs 4 MSHRs only %.2fx bandwidth", pts[2].BandwidthGBs/pts[0].BandwidthGBs)
	}
}

func TestStreamTableSweepRestores4HT(t *testing.T) {
	r := fastRunner()
	pts, err := r.StreamTableSweep([]int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// §IV-B: a table too small for the threads' streams destroys the
	// 4-way-SMT gain; a sufficient one restores it.
	if pts[0].Gain4HTOver > 1.0 {
		t.Errorf("thrashed table still gains at 4HT: %.2f", pts[0].Gain4HTOver)
	}
	if pts[1].Gain4HTOver < pts[0].Gain4HTOver+0.2 {
		t.Errorf("sufficient table gain %.2f not clearly above thrashed %.2f",
			pts[1].Gain4HTOver, pts[0].Gain4HTOver)
	}
}

func TestCoalescingAblation(t *testing.T) {
	r := fastRunner()
	ab, err := r.Coalescing()
	if err != nil {
		t.Fatal(err)
	}
	if ab.TrafficBlowup < 1.02 {
		t.Errorf("no-coalescing traffic blowup = %.2f, want > 1 (duplicate fetches)", ab.TrafficBlowup)
	}
	if ab.Slowdown < 1.0 {
		t.Errorf("coalescing slower than duplicating?! %.2f", ab.Slowdown)
	}
}

func TestFutureHBM(t *testing.T) {
	r := fastRunner()
	res, err := r.FutureHBM()
	if err != nil {
		t.Fatal(err)
	}
	// §IV-G: the L2 MSHR file fills well before peak bandwidth.
	if res.PeakFraction > 0.7 {
		t.Errorf("future node at %.0f%% of peak; the experiment needs MSHRs to bind first", 100*res.PeakFraction)
	}
	if res.TrueL2Occ < 0.5*float64(res.L2Capacity) {
		t.Errorf("L2 occupancy %.1f of %d not the binding structure", res.TrueL2Occ, res.L2Capacity)
	}
}

// TestPrefetchLevel: §III-C's claim that the prefetch *level* decides the
// outcome on a random-access routine — L2 prefetching side-steps the L1
// MSHR bottleneck, L1 prefetching only competes with demand for it.
func TestPrefetchLevel(t *testing.T) {
	res, err := fastRunner().PrefetchLevel()
	if err != nil {
		t.Fatal(err)
	}
	if res.L2Speedup < 1.15 {
		t.Errorf("L2 prefetch speedup = %.2f, want substantial (paper: 1.4x)", res.L2Speedup)
	}
	if res.L1Speedup > res.L2Speedup-0.1 {
		t.Errorf("L1 prefetch (%.2fx) nearly matches L2 (%.2fx); the level should matter",
			res.L1Speedup, res.L2Speedup)
	}
}

// TestCacheMode: the flat-vs-cache-mode extension — random footprints far
// beyond the MCDRAM cache thrash it (flat mode wins clearly), while a
// fitting iterative working set is served at MCDRAM speed either way.
func TestCacheMode(t *testing.T) {
	out, err := fastRunner().CacheMode()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("cases = %d", len(out))
	}
	isx, iter := out[0], out[1]
	if isx.FlatOverCache < 1.3 {
		t.Errorf("flat mode only %.2fx over cache mode on ISx; the thrash penalty should be large", isx.FlatOverCache)
	}
	if isx.MCHitFrac > 0.2 {
		t.Errorf("ISx memory-cache hit rate = %.2f, want thrashing", isx.MCHitFrac)
	}
	if iter.MCHitFrac < 0.8 {
		t.Errorf("iterative hit rate = %.2f, want high (fits)", iter.MCHitFrac)
	}
	if iter.FlatOverCache > 1.25 {
		t.Errorf("cache mode loses %.2fx on a fitting working set; should be near parity", iter.FlatOverCache)
	}
}
