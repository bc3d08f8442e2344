package cpu

import (
	"math"
	"testing"

	"littleslaw/internal/events"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
)

func testRig(p *platform.Platform) (*events.Scheduler, *memsys.Node) {
	sched := &events.Scheduler{}
	return sched, memsys.NewNode(sched, p)
}

func seqOps(n int, stride uint64, gap float64) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Addr: uint64(i) * stride, Kind: memsys.Load, GapCycles: gap, Work: 1}
	}
	return ops
}

func TestThreadCompletesAllOps(t *testing.T) {
	p := platform.SKL()
	sched, node := testRig(p)
	gen := &SliceGen{Ops: seqOps(100, 64, 1)}
	core := NewCore(node, []Generator{gen}, 8, 1)
	core.Start()
	sched.Run()
	th := core.Threads[0]
	if !th.Finished() {
		t.Fatal("thread never finished")
	}
	if th.Stats.Retired != 100 || th.Stats.Issued != 100 {
		t.Fatalf("retired/issued = %d/%d, want 100/100", th.Stats.Retired, th.Stats.Issued)
	}
	if core.Work() != 100 {
		t.Fatalf("work = %v, want 100", core.Work())
	}
}

func TestThreadWindowLimitsOutstanding(t *testing.T) {
	p := platform.SKL()
	sched, node := testRig(p)
	// Distinct pages, zero gap: the thread would issue everything at once
	// were it not for the window.
	gen := &SliceGen{Ops: seqOps(50, 4096, 0)}
	core := NewCore(node, []Generator{gen}, 4, 1)
	core.Start()
	// Before any simulated time passes, outstanding must equal the window
	// (4 < 10 L1 MSHRs, so MSHRs are not the binding limit here).
	if got := core.Threads[0].Outstanding(); got != 4 {
		t.Fatalf("outstanding = %d, want window 4", got)
	}
	sched.Run()
	if !core.Finished() {
		t.Fatal("core did not finish")
	}
}

func TestThreadGapPacesIssue(t *testing.T) {
	p := platform.SKL()
	// Cache-resident accesses with a large gap: execution time is dominated
	// by compute pacing, so doubling the gap roughly doubles runtime.
	run := func(gap float64) events.Time {
		sched, node := testRig(p)
		ops := make([]Op, 200)
		for i := range ops {
			ops[i] = Op{Addr: uint64(i%4) * 64, Kind: memsys.Load, GapCycles: gap, Work: 1}
		}
		core := NewCore(node, []Generator{&SliceGen{Ops: ops}}, 8, 1)
		core.Start()
		sched.Run()
		return core.Threads[0].Stats.FinishPs
	}
	t1 := run(10)
	t2 := run(20)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("gap 20 vs 10 runtime ratio = %.2f, want ~2", ratio)
	}
}

func TestGapScaleSlowsIssue(t *testing.T) {
	p := platform.SKL()
	run := func(scale float64) events.Time {
		sched, node := testRig(p)
		ops := make([]Op, 200)
		for i := range ops {
			ops[i] = Op{Addr: uint64(i%4) * 64, Kind: memsys.Load, GapCycles: 10, Work: 1}
		}
		core := NewCore(node, []Generator{&SliceGen{Ops: ops}}, 8, scale)
		core.Start()
		sched.Run()
		return core.Threads[0].Stats.FinishPs
	}
	if ratio := float64(run(2)) / float64(run(1)); math.Abs(ratio-2) > 0.3 {
		t.Fatalf("gapScale 2 runtime ratio = %.2f, want ~2", ratio)
	}
}

func TestPrefetchesDoNotOccupyWindow(t *testing.T) {
	p := platform.SKL()
	sched, node := testRig(p)
	ops := make([]Op, 0, 40)
	for i := 0; i < 20; i++ {
		ops = append(ops, Op{Addr: uint64(i) * 4096, Kind: memsys.PrefetchL2, GapCycles: 0})
		ops = append(ops, Op{Addr: uint64(i) * 64, Kind: memsys.Load, GapCycles: 0, Work: 1})
	}
	core := NewCore(node, []Generator{&SliceGen{Ops: ops}}, 2, 1)
	core.Start()
	sched.Run()
	th := core.Threads[0]
	if !th.Finished() {
		t.Fatal("did not finish")
	}
	if th.Stats.Retired != 20 {
		t.Fatalf("retired = %d, want 20 demand loads", th.Stats.Retired)
	}
	if th.Hier().Stats.SWPrefetches != 20 {
		t.Fatalf("sw prefetches = %d, want 20", th.Hier().Stats.SWPrefetches)
	}
}

func TestSMTThreadsShareMSHRs(t *testing.T) {
	p := platform.SKL()
	sched, node := testRig(p)
	// Two threads, each with a window larger than half the L1 MSHR file:
	// combined in-flight demand must never exceed the MSHR capacity.
	mkGen := func(base uint64) Generator {
		ops := make([]Op, 200)
		for i := range ops {
			ops[i] = Op{Addr: base + uint64(i)*4096, Kind: memsys.Load, GapCycles: 0, Work: 1}
		}
		return &SliceGen{Ops: ops}
	}
	core := NewCore(node, []Generator{mkGen(0), mkGen(1 << 30)}, 8, 1)
	core.Start()
	maxInFlight := 0
	for sched.Step() {
		if n := core.Hier.L1M.InFlight(); n > maxInFlight {
			maxInFlight = n
		}
	}
	if maxInFlight > p.L1.MSHRs {
		t.Fatalf("combined in-flight %d exceeded L1 MSHRs %d", maxInFlight, p.L1.MSHRs)
	}
	if maxInFlight < p.L1.MSHRs {
		t.Fatalf("two 8-deep threads only reached %d in flight, expected to saturate %d MSHRs",
			maxInFlight, p.L1.MSHRs)
	}
	if !core.Finished() {
		t.Fatal("core did not finish")
	}
}

func TestHigherWindowRaisesOccupancyAndThroughput(t *testing.T) {
	p := platform.KNL()
	run := func(window int) (events.Time, float64) {
		sched, node := testRig(p)
		ops := seqOps(600, 4096, 2)
		core := NewCore(node, []Generator{&SliceGen{Ops: ops}}, window, 1)
		core.Start()
		sched.Run()
		occ := core.Hier.L1M.Occ.Mean(sched.Now())
		return core.Threads[0].Stats.FinishPs, occ
	}
	t2, occ2 := run(2)
	t8, occ8 := run(8)
	if occ8 <= occ2 {
		t.Fatalf("occupancy did not rise with window: %v vs %v", occ8, occ2)
	}
	if t8 >= t2 {
		t.Fatalf("more MLP did not reduce runtime: %v vs %v", t8, t2)
	}
}

func TestSliceGenExhaustion(t *testing.T) {
	g := &SliceGen{Ops: seqOps(2, 64, 0)}
	if _, ok := g.Next(); !ok {
		t.Fatal("first Next failed")
	}
	if _, ok := g.Next(); !ok {
		t.Fatal("second Next failed")
	}
	if _, ok := g.Next(); ok {
		t.Fatal("exhausted generator returned an op")
	}
}

func TestEmptyGeneratorFinishesImmediately(t *testing.T) {
	p := platform.SKL()
	sched, node := testRig(p)
	core := NewCore(node, []Generator{&SliceGen{}}, 4, 1)
	core.Start()
	sched.Run()
	if !core.Finished() {
		t.Fatal("empty generator did not finish")
	}
	if core.Threads[0].Stats.FinishPs != 0 {
		t.Fatalf("finish time = %v, want 0", core.Threads[0].Stats.FinishPs)
	}
}

// missGen emits an endless stream of far-apart lines, so nearly every
// operation goes to memory; one in four is a store, so L1 and L2 evict
// dirty lines and the writeback path runs too. It allocates nothing.
type missGen struct{ x uint64 }

func (g *missGen) Next() (Op, bool) {
	g.x ^= g.x << 13
	g.x ^= g.x >> 7
	g.x ^= g.x << 17
	kind := memsys.Load
	if g.x&3 == 0 {
		kind = memsys.Store
	}
	return Op{Addr: g.x % (1 << 34) &^ 255, Kind: kind, GapCycles: 2, Work: 1}, true
}

// TestMissPathAllocs pins the tentpole where the work is: once the queues
// have reached their steady-state capacity, a demand miss's whole round
// trip — thread issue, L1 and L2 MSHR allocation, the node's fetch, DRAM
// arrival, bank service and completion, both fills, the waiters, the
// thread's retire and re-pump — allocates nothing, with an L3 in the path
// (SKL) and with a memory-side cache and a far tier (KNL cache mode).
func TestMissPathAllocs(t *testing.T) {
	for _, p := range []*platform.Platform{platform.SKL(), platform.KNLCacheMode()} {
		sched, node := testRig(p)
		gens := []Generator{&missGen{x: 1}, &missGen{x: 2}}
		core := NewCore(node, gens, p.DemandWindow, 1)
		core.Start()
		step := func() {
			for i := 0; i < 2000; i++ {
				if !sched.Step() {
					t.Fatal("event queue drained; the generators are endless")
				}
			}
		}
		for i := 0; i < 150; i++ { // warm: fill L1 and L2, grow every queue
			step()
		}
		before := core.Threads[0].Stats.Retired + core.Threads[1].Stats.Retired
		allocs := testing.AllocsPerRun(50, step)
		retired := core.Threads[0].Stats.Retired + core.Threads[1].Stats.Retired - before
		reads := node.DRAM.Stats.Reads
		if node.SlowDRAM != nil {
			reads += node.SlowDRAM.Stats.Reads
		}
		if retired < 5000 || reads < retired/2 || node.DRAM.Stats.Writes == 0 {
			t.Fatalf("%s: %d operations retired over %d memory reads and %d writes; the measured steps did not exercise the miss path",
				p.Name, retired, reads, node.DRAM.Stats.Writes)
		}
		if allocs > 0 {
			t.Errorf("%s: %.0f allocations per 2000 events on the warmed miss path, want 0", p.Name, allocs)
		}
	}
}
