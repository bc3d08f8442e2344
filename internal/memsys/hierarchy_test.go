package memsys

import (
	"math/rand"
	"testing"

	"littleslaw/internal/events"
	"littleslaw/internal/platform"
)

func newCore(p *platform.Platform) (*events.Scheduler, *Node, *Hierarchy) {
	sched := &events.Scheduler{}
	node := NewNode(sched, p)
	return sched, node, NewHierarchy(node)
}

func TestHierarchyL1Hit(t *testing.T) {
	p := platform.SKL()
	sched, _, h := newCore(p)
	done := 0
	h.Access(0x1000, Load, func() { done++ })
	sched.Run()
	firstMissTime := sched.Now()
	if done != 1 {
		t.Fatal("load never completed")
	}
	// Second access to the same line: an L1 hit, orders of magnitude faster.
	h.Access(0x1008, Load, func() { done++ })
	sched.Run()
	hitLat := sched.Now() - firstMissTime
	if done != 2 {
		t.Fatal("second load never completed")
	}
	wantHit := p.Clock().Cycles(p.L1.HitCycles)
	if hitLat != wantHit {
		t.Fatalf("L1 hit latency = %v ps, want %v", hitLat, wantHit)
	}
	if firstMissTime < 50*events.Nanosecond {
		t.Fatalf("cold miss latency = %v, implausibly fast", firstMissTime)
	}
}

func TestHierarchyMissLatencyNearIdleDRAM(t *testing.T) {
	for _, p := range platform.All() {
		sched, _, h := newCore(p)
		var lat events.Time
		h.Access(0xABC000, Load, func() { lat = sched.Now() })
		sched.Run()
		ns := lat.Nanoseconds()
		// Idle full-path latency: L1+L2(+L3 lookup rolled into base)+DRAM.
		low, high := 70.0, 250.0
		if ns < low || ns > high {
			t.Errorf("%s cold load-to-use = %.1f ns, want within [%v, %v]", p.Name, ns, low, high)
		}
	}
}

func TestHierarchyCoalescingSameLine(t *testing.T) {
	p := platform.SKL()
	sched, node, h := newCore(p)
	done := 0
	// Two loads to the same 64B line issued back to back: one memory read.
	h.Access(0x2000, Load, func() { done++ })
	h.Access(0x2010, Load, func() { done++ })
	sched.Run()
	if done != 2 {
		t.Fatalf("completions = %d, want 2", done)
	}
	if node.DRAM.Stats.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (coalesced)", node.DRAM.Stats.Reads)
	}
	if h.L1M.Stats.Coalesced != 1 {
		t.Fatalf("L1 MSHR coalesced = %d, want 1", h.L1M.Stats.Coalesced)
	}
}

func TestHierarchyL1MSHRSaturation(t *testing.T) {
	p := platform.SKL()
	sched, _, h := newCore(p)
	// Issue 3× the L1 MSHR capacity of distinct-line loads at once.
	n := 3 * p.L1.MSHRs
	done := 0
	for i := 0; i < n; i++ {
		h.Access(uint64(i)*4096, Load, func() { done++ })
	}
	if h.L1M.InFlight() != p.L1.MSHRs {
		t.Fatalf("in flight = %d, want MSHR cap %d", h.L1M.InFlight(), p.L1.MSHRs)
	}
	if h.L1M.Occ.Peak() > p.L1.MSHRs {
		t.Fatalf("occupancy peak %d exceeded capacity %d", h.L1M.Occ.Peak(), p.L1.MSHRs)
	}
	sched.Run()
	if done != n {
		t.Fatalf("completions = %d, want %d", done, n)
	}
	if h.Stats.L1FullStallPs == 0 {
		t.Fatal("no L1 MSHR-full stall time recorded despite oversubscription")
	}
	if h.L1M.Stats.FullEvents == 0 {
		t.Fatal("no full events recorded")
	}
}

func TestHierarchySoftwarePrefetchL2BypassesL1MSHR(t *testing.T) {
	p := platform.SKL()
	sched, _, h := newCore(p)
	for i := 0; i < 8; i++ {
		h.Access(uint64(i)*4096, PrefetchL2, nil)
	}
	if h.L1M.InFlight() != 0 {
		t.Fatalf("L2 prefetches consumed %d L1 MSHRs", h.L1M.InFlight())
	}
	if h.L2M.InFlight() != 8 {
		t.Fatalf("L2 MSHRs in flight = %d, want 8", h.L2M.InFlight())
	}
	sched.Run()
	// A demand load to a prefetched line now hits in L2: its L1 MSHR
	// residency is the short L2 round trip, not a memory access.
	start := sched.Now()
	var lat events.Time
	h.Access(0, Load, func() { lat = sched.Now() - start })
	sched.Run()
	maxL2Trip := p.Clock().Cycles(2*p.L2.HitCycles + 2*p.L1.HitCycles)
	if lat > maxL2Trip {
		t.Fatalf("post-prefetch load latency %v ps exceeds L2 trip bound %v", lat, maxL2Trip)
	}
}

// TestHierarchyFlowControlledPrefetchL2QueuesOnFullMSHR: an L2 software
// prefetch whose issuer waits for the resolve callback (the X-Mem load
// generators) queues when the L2 MSHR file is full, issues once an entry
// completes, and resolves exactly once. Past maxSWPend queued requests it
// is dropped, and its callback fires at once so the issuer can reissue.
func TestHierarchyFlowControlledPrefetchL2QueuesOnFullMSHR(t *testing.T) {
	p := platform.SKL()
	sched, _, h := newCore(p)
	n := p.L2.MSHRs
	resolved := make([]int, 2*n+1)
	at := make([]events.Time, 2*n+1)
	issue := func(i int) {
		h.Access(uint64(i)*4096, PrefetchL2, func() { resolved[i]++; at[i] = sched.Now() })
	}
	for i := 0; i < n; i++ {
		issue(i)
	}
	if !h.L2M.Full() || h.pendL2Len() != 0 {
		t.Fatalf("after %d prefetches: MSHR full %v, %d queued; want full and 0", n, h.L2M.Full(), h.pendL2Len())
	}
	for i := n; i < 2*n; i++ {
		issue(i)
		if got := h.pendL2Len(); got != i-n+1 {
			t.Fatalf("prefetch %d: %d queued, want %d", i, got, i-n+1)
		}
	}
	if h.Stats.SWPrefetchDropped != 0 {
		t.Fatalf("%d prefetches dropped while the queue had room", h.Stats.SWPrefetchDropped)
	}

	// One past the bound: dropped, and resolved at its issue time.
	issue(2 * n)
	if h.Stats.SWPrefetchDropped != 1 || h.pendL2Len() != n {
		t.Fatalf("past the bound: %d dropped, %d queued; want 1 and %d", h.Stats.SWPrefetchDropped, h.pendL2Len(), n)
	}
	sched.Step()
	if resolved[2*n] != 1 || at[2*n] != 0 {
		t.Fatalf("dropped prefetch resolved %d times at %v ps, want once at 0", resolved[2*n], at[2*n])
	}

	sched.Run()
	firstFill := at[0]
	for i := 0; i < n; i++ {
		firstFill = min(firstFill, at[i])
	}
	for i := 0; i < 2*n; i++ {
		if resolved[i] != 1 {
			t.Fatalf("prefetch %d resolved %d times, want 1", i, resolved[i])
		}
		if i >= n && at[i] <= firstFill {
			t.Fatalf("queued prefetch %d resolved at %v ps, not after the first fill at %v ps", i, at[i], firstFill)
		}
	}
	if h.pendL2Len() != 0 || h.Stats.L2MissSWPrefetch != uint64(2*n) {
		t.Fatalf("after the run: %d queued, %d L2 prefetch misses issued; want 0 and %d",
			h.pendL2Len(), h.Stats.L2MissSWPrefetch, 2*n)
	}
	if h.L2M.Occ.Peak() > n {
		t.Fatalf("L2 MSHR occupancy peaked at %d, above its %d entries", h.L2M.Occ.Peak(), n)
	}
}

func TestHierarchyHardwarePrefetcherCutsDemandLatency(t *testing.T) {
	p := platform.SKL()

	run := func(streams int) float64 {
		pp := platform.SKL()
		pp.Prefetcher.Streams = streams
		sched, _, h := newCore(pp)
		var total events.Time
		count := 0
		var issue func(i int)
		issue = func(i int) {
			if i >= 400 {
				return
			}
			start := sched.Now()
			h.Access(uint64(i)*64, Load, func() {
				total += sched.Now() - start
				count++
				issue(i + 1)
			})
		}
		issue(0)
		sched.Run()
		return float64(total) / float64(count)
	}

	with := run(p.Prefetcher.Streams)
	without := run(0)
	if with >= without*0.6 {
		t.Fatalf("prefetcher barely helps a pure stream: %.0f ps with vs %.0f ps without", with, without)
	}
}

func TestHierarchyWritebackTraffic(t *testing.T) {
	p := platform.SKL()
	sched, node, h := newCore(p)
	// Stream stores over a footprint much larger than L1+L2+L3: every
	// line is eventually evicted dirty and written back.
	footprint := uint64(p.L3.SizeBytes) * 4
	step := uint64(p.LineBytes)
	var issue func(addr uint64)
	issue = func(addr uint64) {
		if addr >= footprint {
			return
		}
		h.Access(addr, Store, func() { issue(addr + step) })
	}
	issue(0)
	sched.Run()
	if node.DRAM.Stats.Writes == 0 {
		t.Fatal("no writeback traffic from a dirty streaming store workload")
	}
	// Writebacks should approach reads for a store-only stream.
	ratio := float64(node.DRAM.Stats.Writes) / float64(node.DRAM.Stats.Reads)
	if ratio < 0.5 {
		t.Fatalf("write/read ratio = %.2f, want ≥ 0.5", ratio)
	}
}

func TestHierarchySharedL3AcrossCores(t *testing.T) {
	p := platform.SKL()
	sched := &events.Scheduler{}
	node := NewNode(sched, p)
	h1 := NewHierarchy(node)
	h2 := NewHierarchy(node)
	// Core 1 brings a line in (fills L3); core 2's miss should then be
	// satisfied by the shared L3 with no second memory read.
	h1.Access(0x9000, Load, nil)
	sched.Run()
	reads := node.DRAM.Stats.Reads
	h2.Access(0x9000, Load, nil)
	sched.Run()
	if node.DRAM.Stats.Reads != reads {
		t.Fatalf("second core's access went to memory despite L3 hit")
	}
}

func TestHierarchyNoL3OnKNL(t *testing.T) {
	p := platform.KNL()
	sched := &events.Scheduler{}
	node := NewNode(sched, p)
	if node.L3 != nil {
		t.Fatal("KNL node has an L3")
	}
	h1 := NewHierarchy(node)
	h2 := NewHierarchy(node)
	h1.Access(0x9000, Load, nil)
	sched.Run()
	h2.Access(0x9000, Load, nil)
	sched.Run()
	if node.DRAM.Stats.Reads != 2 {
		t.Fatalf("DRAM reads = %d, want 2 (no shared cache between KNL cores)", node.DRAM.Stats.Reads)
	}
}

// Property-style stress: random mixes of loads, stores and prefetches never
// violate MSHR capacity, never deadlock, and complete every demand access.
func TestHierarchyStress(t *testing.T) {
	for _, p := range platform.All() {
		rng := rand.New(rand.NewSource(42))
		sched, _, h := newCore(p)
		issued, completed := 0, 0
		var step func()
		step = func() {
			if issued >= 3000 {
				return
			}
			issued++
			addr := rng.Uint64() % (1 << 26)
			switch rng.Intn(10) {
			case 0:
				h.Access(addr, PrefetchL2, nil)
				completed++ // prefetches do not block
				sched.After(100, step)
			case 1, 2:
				h.Access(addr, Store, func() { completed++; step() })
			default:
				h.Access(addr, Load, func() { completed++; step() })
			}
			if h.L1M.InFlight() > p.L1.MSHRs || h.L2M.InFlight() > p.L2.MSHRs {
				t.Fatalf("%s: MSHR capacity violated", p.Name)
			}
		}
		// Several independent chains to create MSHR pressure.
		for i := 0; i < 16; i++ {
			step()
		}
		sched.Run()
		if completed != issued {
			t.Fatalf("%s: completed %d of %d accesses", p.Name, completed, issued)
		}
	}
}

func TestMemorySideCache(t *testing.T) {
	p := platform.KNLCacheMode()
	sched := &events.Scheduler{}
	node := NewNode(sched, p)
	if node.SlowDRAM == nil {
		t.Fatal("cache-mode node has no far tier")
	}
	h := NewHierarchy(node)

	// First touch: memory-side cache miss → far tier read (+ fast fill).
	var coldLat events.Time
	h.Access(0x100000, Load, func() { coldLat = sched.Now() })
	sched.Run()
	if node.SlowDRAM.Stats.Reads != 1 {
		t.Fatalf("far-tier reads = %d, want 1", node.SlowDRAM.Stats.Reads)
	}
	if node.MCMisses != 1 || node.MCHits != 0 {
		t.Fatalf("mc stats = %d/%d, want 0 hits / 1 miss", node.MCHits, node.MCMisses)
	}

	// Re-touch after eviction from L1/L2: served by the fast tier. Evict
	// by stressing the L2 sets with many conflicting lines (draining at a
	// stride coprime to the set count so drops do not align with sets).
	for i := 1; i <= 40000; i++ {
		kind := PrefetchL2
		if i%16 == 0 {
			kind = Load // loads churn the L1 as well
		}
		h.Access(0x100000+uint64(i)*uint64(p.LineBytes), kind, nil)
		if i%24 == 0 {
			sched.Run()
		}
	}
	sched.Run()
	slowBefore := node.SlowDRAM.Stats.Reads
	start := sched.Now()
	var warmLat events.Time
	h.Access(0x100000, Load, func() { warmLat = sched.Now() - start })
	sched.Run()
	if node.SlowDRAM.Stats.Reads != slowBefore {
		t.Fatal("warm re-access went to the far tier")
	}
	if warmLat >= coldLat {
		t.Fatalf("warm access (%v) not faster than cold (%v)", warmLat, coldLat)
	}
	if node.MCHitFraction() <= 0 {
		t.Fatal("no memory-side cache hits recorded")
	}
}

func TestFlatModeHasNoFarTier(t *testing.T) {
	p := platform.KNL()
	sched := &events.Scheduler{}
	node := NewNode(sched, p)
	if node.SlowDRAM != nil {
		t.Fatal("flat mode must not build a far tier")
	}
	if node.MCHitFraction() != 0 {
		t.Fatal("flat mode reports memory-cache hits")
	}
}
