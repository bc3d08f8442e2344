package workloads

import (
	"context"
	"testing"

	"littleslaw/internal/cpu"
	"littleslaw/internal/platform"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
)

func TestAllSixWorkloads(t *testing.T) {
	ws := All()
	if len(ws) != 6 {
		t.Fatalf("Table II lists 6 applications, got %d", len(ws))
	}
	wantRoutines := map[string]string{
		"ISx":       "count_local_keys",
		"HPCG":      "ComputeSPMV_ref",
		"PENNANT":   "setCornerDiv",
		"CoMD":      "eamForce",
		"MiniGhost": "mg_stencil_3d27pt",
		"SNAP":      "dim3_sweep",
	}
	for _, w := range ws {
		if got := w.Routine(); got != wantRoutines[w.Name()] {
			t.Errorf("%s routine = %q, want %q (Table II)", w.Name(), got, wantRoutines[w.Name()])
		}
	}
	if _, ok := ByName("HPCG"); !ok {
		t.Fatal("ByName(HPCG) failed")
	}
	if _, ok := ByName("LINPACK"); ok {
		t.Fatal("unknown workload resolved")
	}
}

func TestAccessPatternClassification(t *testing.T) {
	random := map[string]bool{
		"ISx": true, "PENNANT": true, "CoMD": true,
		"HPCG": false, "MiniGhost": false, "SNAP": false,
	}
	for _, w := range All() {
		if w.RandomAccess() != random[w.Name()] {
			t.Errorf("%s RandomAccess = %v, want %v", w.Name(), w.RandomAccess(), random[w.Name()])
		}
	}
}

func TestVariantLabels(t *testing.T) {
	cases := []struct {
		v       Variant
		threads int
		want    string
	}{
		{Variant{}, 1, "base"},
		{Variant{Vectorized: true}, 1, "+ vect"},
		{Variant{Vectorized: true}, 2, "+ vect, 2-ht"},
		{Variant{Vectorized: true, SWPrefetchL2: true}, 2, "+ vect, 2-ht, l2-pref"},
		{Variant{Tiled: true}, 4, "+ tiling, 4-ht"},
		{Variant{NoFuse: true}, 1, "+ nofuse"},
	}
	for _, c := range cases {
		if got := c.v.Label(c.threads); got != c.want {
			t.Errorf("Label(%+v, %d) = %q, want %q", c.v, c.threads, got, c.want)
		}
	}
}

func TestWithVariantIsCopy(t *testing.T) {
	for _, w := range All() {
		v := w.Variant()
		v.Vectorized = true
		w2 := w.WithVariant(v)
		if w.Variant().Vectorized {
			t.Errorf("%s: WithVariant mutated the receiver", w.Name())
		}
		if !w2.Variant().Vectorized {
			t.Errorf("%s: WithVariant lost the new state", w.Name())
		}
		if w2.Name() != w.Name() {
			t.Errorf("%s: name changed", w.Name())
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	p := platform.SKL()
	for _, w := range All() {
		cfg1 := w.Config(p, 1, 0.05)
		cfg2 := w.Config(p, 1, 0.05)
		g1 := cfg1.NewGen(3, 0)
		g2 := cfg2.NewGen(3, 0)
		for i := 0; i < 500; i++ {
			op1, ok1 := g1.Next()
			op2, ok2 := g2.Next()
			if ok1 != ok2 || op1 != op2 {
				t.Errorf("%s: generators diverge at op %d", w.Name(), i)
				break
			}
			if !ok1 {
				break
			}
		}
	}
}

func TestGeneratorsDisjointAcrossThreads(t *testing.T) {
	p := platform.SKL()
	for _, w := range All() {
		cfg := w.Config(p, 1, 0.05)
		perThread := make([]map[uint64]bool, 0, 3)
		for _, id := range [][2]int{{0, 0}, {1, 0}, {5, 0}} {
			g := cfg.NewGen(id[0], id[1])
			set := map[uint64]bool{}
			for i := 0; i < 200; i++ {
				op, ok := g.Next()
				if !ok {
					break
				}
				set[op.Addr] = true
			}
			perThread = append(perThread, set)
		}
		// Intra-thread reuse is fine; arenas across threads must not overlap.
		for i := 0; i < len(perThread); i++ {
			for j := i + 1; j < len(perThread); j++ {
				for a := range perThread[i] {
					if perThread[j][a] {
						t.Errorf("%s: address %#x shared across threads %d and %d", w.Name(), a, i, j)
						break
					}
				}
			}
		}
	}
}

func TestCapabilitiesReflectVariantAndPlatform(t *testing.T) {
	p := platform.KNL()
	isx, _ := ByName("ISx")
	caps := isx.Capabilities(p, 2)
	if !caps.Vectorizable || caps.AlreadyVectorized {
		t.Error("base ISx must be vectorizable and not yet vectorized")
	}
	if caps.SMTWays != 4 || caps.CurrentThreads != 2 {
		t.Errorf("SMT caps = %d/%d, want 4/2", caps.SMTWays, caps.CurrentThreads)
	}
	vect := isx.WithVariant(Variant{Vectorized: true})
	if !vect.Capabilities(p, 1).AlreadyVectorized {
		t.Error("vectorized variant not reflected in capabilities")
	}
	mg, _ := ByName("MiniGhost")
	if !mg.Capabilities(p, 1).Tileable {
		t.Error("MiniGhost must be tileable")
	}
	snap, _ := ByName("SNAP")
	sc := snap.Capabilities(p, 1)
	if !sc.ShortLoops || !sc.Fusable {
		t.Error("SNAP must have short loops and be fusable")
	}
}

// runSmall runs a workload on a reduced node for qualitative assertions.
func runSmall(t *testing.T, w Workload, p *platform.Platform, threads int) *sim.Result {
	t.Helper()
	cfg := w.Config(p, threads, 0.08)
	cfg.Cores = 8
	res, err := runner.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s on %s: %v", w.Name(), p.Name, err)
	}
	return res
}

func TestISxSaturatesL1MSHRs(t *testing.T) {
	p := platform.SKL()
	w, _ := ByName("ISx")
	res := runSmall(t, w, p, 1)
	if res.TrueL1Occ < 0.8*float64(p.L1.MSHRs) {
		t.Errorf("ISx L1 occupancy = %.2f, want near %d", res.TrueL1Occ, p.L1.MSHRs)
	}
	if res.PrefetchedReadFraction > 0.25 {
		t.Errorf("ISx prefetched fraction = %.2f, want low (random access)", res.PrefetchedReadFraction)
	}
}

func TestISxPrefetchShiftsBottleneckToL2(t *testing.T) {
	p := platform.KNL()
	w, _ := ByName("ISx")
	base := runSmall(t, w, p, 1)
	pref := runSmall(t, w.WithVariant(Variant{SWPrefetchL2: true}), p, 1)
	if pref.TrueL2Occ <= base.TrueL2Occ {
		t.Errorf("L2 occupancy did not rise with prefetching: %.2f vs %.2f", pref.TrueL2Occ, base.TrueL2Occ)
	}
	if pref.Throughput <= base.Throughput {
		t.Errorf("prefetching did not speed ISx up: %.3g vs %.3g", pref.Throughput, base.Throughput)
	}
	// §IV-A's simulator verification: before prefetching the L1 MSHR file
	// is pinned near capacity; after, the lines live in L2 so the L1
	// residency collapses.
	if base.TrueL1Occ < 0.7*float64(p.L1.MSHRs) {
		t.Errorf("base L1 occupancy = %.2f, want near capacity %d", base.TrueL1Occ, p.L1.MSHRs)
	}
	if pref.TrueL1Occ > 0.6*base.TrueL1Occ {
		t.Errorf("prefetching left L1 occupancy at %.2f (base %.2f); the bottleneck should shift to L2",
			pref.TrueL1Occ, base.TrueL1Occ)
	}
}

func TestHPCGIsPrefetchFriendly(t *testing.T) {
	p := platform.SKL()
	w, _ := ByName("HPCG")
	res := runSmall(t, w, p, 1)
	if res.PrefetchedReadFraction < 0.5 {
		t.Errorf("HPCG prefetched fraction = %.2f, want streaming-dominated", res.PrefetchedReadFraction)
	}
}

func TestPENNANTVectorizationLifetsMLPAndThroughput(t *testing.T) {
	p := platform.KNL()
	w, _ := ByName("PENNANT")
	base := runSmall(t, w, p, 1)
	vect := runSmall(t, w.WithVariant(Variant{Vectorized: true}), p, 1)
	if vect.Throughput < 2*base.Throughput {
		t.Errorf("PENNANT vectorization speedup = %.2f, want large (paper: 5.76x)",
			vect.Throughput/base.Throughput)
	}
	if vect.TrueL1Occ <= base.TrueL1Occ {
		t.Errorf("vectorization did not raise MLP: %.2f vs %.2f", vect.TrueL1Occ, base.TrueL1Occ)
	}
}

func TestCoMDIsComputeBound(t *testing.T) {
	p := platform.SKL()
	w, _ := ByName("CoMD")
	res := runSmall(t, w, p, 1)
	if res.TrueL1Occ > 1.0 {
		t.Errorf("CoMD occupancy = %.2f, want ≈0.2 (compute bound)", res.TrueL1Occ)
	}
}

func TestMiniGhostTilingCutsTraffic(t *testing.T) {
	p := platform.KNL()
	w, _ := ByName("MiniGhost")
	base := runSmall(t, w, p, 1)
	tiled := runSmall(t, w.WithVariant(Variant{Tiled: true}), p, 1)
	// Traffic per unit of work must drop substantially (the CrayPat
	// observation in §IV-E).
	baseTPW := base.TotalGBs / base.Throughput
	tiledTPW := tiled.TotalGBs / tiled.Throughput
	if tiledTPW > 0.85*baseTPW {
		t.Errorf("tiling cut traffic/work only %.2fx", baseTPW/tiledTPW)
	}
	if tiled.Throughput < base.Throughput {
		t.Errorf("tiling slowed MiniGhost down: %.3g vs %.3g", tiled.Throughput, base.Throughput)
	}
}

func TestSNAPPrefetchAndFusion(t *testing.T) {
	w, _ := ByName("SNAP")
	knl := platform.KNL()
	base := runSmall(t, w, knl, 1)
	pref := runSmall(t, w.WithVariant(Variant{SWPrefetchL2: true}), knl, 1)
	if pref.Throughput <= base.Throughput {
		t.Errorf("SNAP prefetching did not help: %.3g vs %.3g", pref.Throughput, base.Throughput)
	}

	// §IV-F: disabling fusion helps only on the weak-store-forwarding core.
	a64 := platform.A64FX()
	fused := runSmall(t, w, a64, 1)
	nofuse := runSmall(t, w.WithVariant(Variant{NoFuse: true}), a64, 1)
	gain := nofuse.Throughput / fused.Throughput
	if gain < 1.1 {
		t.Errorf("A64FX nofuse gain = %.2f, want ≈1.25 (paper: ~20%% whole-app)", gain)
	}
	sklFused := runSmall(t, w, knl, 1)
	sklNofuse := runSmall(t, w.WithVariant(Variant{NoFuse: true}), knl, 1)
	if g := sklNofuse.Throughput / sklFused.Throughput; g > 1.05 {
		t.Errorf("KNL nofuse gain = %.2f, want none (pathology is A64FX-specific)", g)
	}
}

func TestScaleControlsWork(t *testing.T) {
	p := platform.SKL()
	w, _ := ByName("CoMD")
	small := w.Config(p, 1, 0.05)
	large := w.Config(p, 1, 1.0)
	count := func(g cpu.Generator) int {
		n := 0
		for {
			if _, ok := g.Next(); !ok {
				return n
			}
			n++
		}
	}
	ns, nl := count(small.NewGen(0, 0)), count(large.NewGen(0, 0))
	if nl <= ns {
		t.Fatalf("scale had no effect: %d vs %d ops", ns, nl)
	}
}

// TestDGEMMLadder: the §III-C worked example — cache tiling slashes
// memory traffic, unroll-and-jam then lifts the FLOP rate toward the
// core's ceiling while the MSHR occupancy stays low (the unroll-and-jam
// precondition the recipe keys on).
func TestDGEMMLadder(t *testing.T) {
	p := platform.SKL()
	w, _ := ByName("DGEMM")
	if w.Name() != "DGEMM" || w.Routine() != "dgemm_kernel" {
		t.Fatal("DGEMM identity wrong")
	}

	naive := runSmall(t, w, p, 1)
	tiled := runSmall(t, w.WithVariant(Variant{Tiled: true}), p, 1)
	jammed := runSmall(t, w.WithVariant(Variant{Tiled: true, UnrollJam: true}), p, 1)

	// Tiling captures B reuse: traffic per flop collapses.
	naiveTPW := naive.TotalGBs / naive.Throughput
	tiledTPW := tiled.TotalGBs / tiled.Throughput
	if tiledTPW > 0.3*naiveTPW {
		t.Errorf("tiling cut traffic/flop only %.1fx", naiveTPW/tiledTPW)
	}
	// Unroll-and-jam raises the FLOP rate further.
	if jammed.Throughput < 1.5*tiled.Throughput {
		t.Errorf("unroll-and-jam gain = %.2fx, want substantial", jammed.Throughput/tiled.Throughput)
	}
	// The fully optimized kernel is flop-bound: occupancy well below the
	// L2 MSHR file (the unroll-and-jam precondition, §III-C).
	if jammed.TrueL2Occ > 0.4*float64(p.L2.MSHRs) {
		t.Errorf("optimized DGEMM occupancy = %.2f of %d, want low (flop bound)",
			jammed.TrueL2Occ, p.L2.MSHRs)
	}
	// And its FLOP rate approaches a meaningful share of the 8-core slice
	// of peak (runSmall uses 8 of 24 cores).
	peak := 8.0 / 24.0 * 1612.8e9
	if jammed.Throughput < 0.2*peak {
		t.Errorf("optimized DGEMM at %.1f%% of peak flops; want within reach of the roof",
			100*jammed.Throughput/peak)
	}
}

func TestExtrasNotInTableII(t *testing.T) {
	for _, w := range All() {
		if w.Name() == "DGEMM" {
			t.Fatal("DGEMM must not appear in the Table II set")
		}
	}
	if len(Extras()) != 1 {
		t.Fatalf("extras = %d", len(Extras()))
	}
}

// TestByNameAllocs: resolving a workload by name is a table lookup. Every
// workload-bodied analyze request makes one on the backend, and the proxy
// makes another for its affinity key.
func TestByNameAllocs(t *testing.T) {
	for _, w := range append(All(), Extras()...) {
		name := w.Name()
		if n := testing.AllocsPerRun(100, func() { ByName(name) }); n != 0 {
			t.Errorf("ByName(%q) allocates %v objects per call, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ByName("LINPACK") }); n != 0 {
		t.Errorf("ByName of an unknown name allocates %v objects per call, want 0", n)
	}
}

// TestMeasurementReadsRun: a run becomes the analysis input field by field,
// with the routine and access class the workload declares.
func TestMeasurementReadsRun(t *testing.T) {
	res := &sim.Result{Cores: 12, ThreadsPerCore: 2, TotalGBs: 81.5, PrefetchedReadFraction: 0.25}
	for _, w := range append(All(), Extras()...) {
		m := w.WithVariant(Variant{Vectorized: true}).Measurement(res)
		if m.Routine != w.Routine() || m.RandomAccess != w.RandomAccess() || m.BandwidthGBs != 81.5 ||
			m.ActiveCores != 12 || m.ThreadsPerCore != 2 || m.PrefetchedReadFraction != 0.25 {
			t.Errorf("%s: measurement %+v does not read the run", w.Name(), m)
		}
	}
}
