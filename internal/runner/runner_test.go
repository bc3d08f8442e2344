package runner

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

// countingConfig builds a small cacheable config whose factory invocations
// are counted: each simulation executed calls NewGen once per hardware
// thread, so execs tracks how many times the simulator actually ran.
func countingConfig(fingerprint string, execs *atomic.Int64) sim.Config {
	return sim.Config{
		Plat:        platform.SKL(),
		Cores:       2,
		Fingerprint: fingerprint,
		NewGen: func(coreID, threadID int) cpu.Generator {
			if coreID == 0 && threadID == 0 {
				execs.Add(1)
			}
			base := uint64(coreID+1) << 34
			i := 0
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if i >= 600 {
					return cpu.Op{}, false
				}
				i++
				return cpu.Op{Addr: base + uint64(i)*8, Kind: memsys.Load, GapCycles: 2, Work: 1}, true
			})
		},
	}
}

func TestKeyCanonicalization(t *testing.T) {
	p := platform.SKL()
	execs := atomic.Int64{}
	// Zero-default form and its explicitly spelled-out equivalent.
	implicit := countingConfig("test/canon", &execs)
	explicit := countingConfig("test/canon", &execs)
	explicit.ThreadsPerCore = 1
	explicit.Window = p.DemandWindow
	explicit.GapScale = 1

	ki, oki, err := KeyOf(implicit)
	if err != nil || !oki {
		t.Fatalf("KeyOf(implicit) = cacheable %v, err %v", oki, err)
	}
	ke, oke, err := KeyOf(explicit)
	if err != nil || !oke {
		t.Fatalf("KeyOf(explicit) = cacheable %v, err %v", oke, err)
	}
	if ki != ke {
		t.Fatalf("equivalent configs canonicalized differently:\n  %+v\n  %+v", ki, ke)
	}

	// Different platform contents (not name) must change the key, since
	// ablations run mutated platform copies under the same name.
	mutated := *p
	mutated.L1.MSHRs++
	cfgM := countingConfig("test/canon", &execs)
	cfgM.Plat = &mutated
	km, _, err := KeyOf(cfgM)
	if err != nil {
		t.Fatal(err)
	}
	if km == ki {
		t.Fatal("mutated platform produced the same key as the original")
	}

	// And the two equivalent forms must land on one cache entry.
	r := New(0)
	if _, err := r.Run(context.Background(), implicit); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), explicit); err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("equivalent configs executed %d simulations, want 1", got)
	}
	s := r.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", s)
	}
}

func TestCrossCallerDedup(t *testing.T) {
	// Two caller populations — as the service and the experiments pipeline
	// are in production, both of which go through the shared spine — race
	// the same canonical config; exactly one simulation must execute.
	r := New(0)
	execs := atomic.Int64{}
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := countingConfig("test/dedup", &execs)
			_, errs[i] = r.Run(context.Background(), cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d concurrent callers executed %d simulations, want 1", callers, got)
	}
	s := r.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss + %d hits", s, callers-1)
	}
}

func TestUncacheableBypass(t *testing.T) {
	r := New(0)
	execs := atomic.Int64{}

	// No fingerprint: every call executes.
	anon := countingConfig("", &execs)
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), anon); err != nil {
			t.Fatal(err)
		}
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("fingerprintless config executed %d times in 2 calls, want 2", got)
	}

	// A hierarchy hook forces bypass even with a fingerprint.
	hooked := countingConfig("test/hooked", &execs)
	hooked.ConfigureHierarchy = func(h *memsys.Hierarchy) { h.NoCoalesce = true }
	if _, _, err := KeyOf(hooked); err != nil {
		t.Fatal(err)
	} else if _, cacheable, _ := KeyOf(hooked); cacheable {
		t.Fatal("config with ConfigureHierarchy reported cacheable")
	}
	before := execs.Load()
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), hooked); err != nil {
			t.Fatal(err)
		}
	}
	if got := execs.Load() - before; got != 2 {
		t.Fatalf("hooked config executed %d times in 2 calls, want 2", got)
	}
	if s := r.Stats(); s.Bypasses != 4 {
		t.Fatalf("stats = %+v, want 4 bypasses", s)
	}
	if r.Len() != 0 {
		t.Fatalf("bypassed runs populated the cache: %d entries", r.Len())
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	r := New(0)
	execs := atomic.Int64{}
	bad := countingConfig("test/bad", &execs)
	bad.GapScale = -1
	if _, err := r.Run(context.Background(), bad); err == nil {
		t.Fatal("negative GapScale accepted")
	}
	bad = countingConfig("test/bad", &execs)
	bad.SMTShare = -0.5
	if _, err := r.Run(context.Background(), bad); err == nil {
		t.Fatal("negative SMTShare accepted")
	}
	if execs.Load() != 0 {
		t.Fatal("invalid configs reached the simulator")
	}
}

func TestDeterminismThroughCache(t *testing.T) {
	// A cold runner and a pooled re-run must produce identical bits: the
	// hierarchy pool warmed by the first run must not leak state into the
	// second (distinct key, so it re-executes on warmed arrays).
	mk := func(fp string) sim.Config {
		var execs atomic.Int64
		return countingConfig(fp, &execs)
	}
	r := New(0)
	a1, err := r.Run(context.Background(), mk("test/det-a"))
	if err != nil {
		t.Fatal(err)
	}
	// Different fingerprint forces re-execution of an identical stream on
	// hierarchies recycled from the first run.
	a2, err := r.Run(context.Background(), mk("test/det-b"))
	if err != nil {
		t.Fatal(err)
	}
	if *a1 != *a2 {
		t.Fatalf("pooled re-run diverged:\n  %+v\n  %+v", *a1, *a2)
	}
}
