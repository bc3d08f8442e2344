package memsys

import (
	"runtime"
	"testing"

	"littleslaw/internal/events"
	"littleslaw/internal/platform"
)

// nopHandler is a typed-event target that does nothing: what a hierarchy or
// a thread is to the scheduler, minus the work.
type nopHandler struct{ fired int }

func (h *nopHandler) Fire(uint32, uint64) { h.fired++ }

// TestMSHRHotPathAllocs pins the pooled MSHR steady state: once the entry
// free list and waiter-array spare pool are warm, an allocate → coalesce →
// complete → recycle cycle — the per-miss hot path of every simulation —
// must not allocate at all, waiters included: they are callbacks by value.
func TestMSHRHotPathAllocs(t *testing.T) {
	sched := &events.Scheduler{}
	m := NewMSHR(sched, 16)
	target := &nopHandler{}
	cycle := func() {
		for i := 0; i < 16; i++ {
			m.Allocate(Line(i))
			m.Coalesce(Line(i), events.Callback{Target: target, Kind: 1, Arg: uint64(i)})
			m.Coalesce(Line(i), events.Callback{Target: target, Kind: 2, Arg: uint64(i)})
		}
		for i := 0; i < 16; i++ {
			ws := m.Complete(Line(i))
			for _, w := range ws {
				w.Fire()
			}
			m.Recycle(ws)
		}
	}
	cycle() // warm the waiter-array spare pool
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("warmed MSHR allocate/complete cycle allocates %.1f objects/run, want 0", allocs)
	}
	if want := 2 * 16 * 102; target.fired != want {
		t.Fatalf("waiters fired %d times, want %d", target.fired, want)
	}
}

// TestSchedulerHotPathAllocs pins the event queue: scheduling typed events
// and popping them within existing capacity must not allocate — neither the
// keys in the heap, nor the payload slab, nor the conversion of a handler
// (or of a plain func through the At/After adapter) to the queue's element.
func TestSchedulerHotPathAllocs(t *testing.T) {
	sched := &events.Scheduler{}
	target := &nopHandler{}
	fn := func() {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			sched.ScheduleAfter(events.Duration(i), events.Callback{Target: target, Kind: uint32(i), Arg: uint64(i)})
			sched.After(events.Duration(i), fn)
		}
		for sched.Step() {
		}
	}
	cycle() // grow the queue's backing arrays once
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("warmed scheduler push/pop cycle allocates %.1f objects/run, want 0", allocs)
	}
}

// TestHierarchyResetReuse pins the pooled-hierarchy contract: acquiring a
// released hierarchy of the same geometry reuses the object, and Reset
// restores freshly-constructed behaviour (no residual cache or prefetcher
// state changing hit patterns).
func TestHierarchyResetReuse(t *testing.T) {
	p := platform.SKL()

	run := func(h *Hierarchy, node *Node) (hits, misses uint64) {
		for i := 0; i < 256; i++ {
			h.Access(uint64(i)*8, Load, nil)
			node.Sched.Run()
		}
		return h.L1.Stats.Hits, h.L1.Stats.Misses
	}

	sched1 := &events.Scheduler{}
	node1 := NewNode(sched1, p)
	h1 := AcquireHierarchy(node1)
	hits1, misses1 := run(h1, node1)
	ReleaseHierarchy(h1)

	sched2 := &events.Scheduler{}
	node2 := NewNode(sched2, p)
	h2 := AcquireHierarchy(node2)
	if h2 != h1 {
		t.Fatal("pool built a new hierarchy while a released one of the same geometry was idle")
	}
	hits2, misses2 := run(h2, node2)
	if hits1 != hits2 || misses1 != misses2 {
		t.Fatalf("pooled hierarchy behaved differently: fresh %d/%d hits/misses, reused %d/%d",
			hits1, misses1, hits2, misses2)
	}
}

// TestPoolsSurviveCollection is the regression test for the pool that
// leaked its contents to the collector: a sync.Pool is emptied by the
// second collection after a Put, so a released hierarchy did not outlive a
// serving tier that collects every few milliseconds, and the next run
// rebuilt its caches. Release, collect twice, acquire: nothing may be
// constructed — for the hierarchy pool and the node pool, on a node with an
// L3 and on one with a two-tier memory and a tag array.
func TestPoolsSurviveCollection(t *testing.T) {
	for _, p := range []*platform.Platform{platform.SKL(), platform.KNLCacheMode()} {
		p.L2.MSHRs += 3 // a geometry no other test pools
		if p.L3 != nil {
			l3 := *p.L3
			l3.SizeBytes /= 4
			p.L3 = &l3
		}
		if p.MemCache != nil {
			mc := *p.MemCache
			mc.SizeBytes /= 4
			p.MemCache = &mc
		}
		cycle := func() (*Node, *Hierarchy) {
			n := AcquireNode(p)
			h := AcquireHierarchy(n)
			ReleaseHierarchy(h)
			ReleaseNode(n)
			return n, h
		}
		n1, h1 := cycle()
		allocs := testing.AllocsPerRun(5, func() {
			runtime.GC()
			runtime.GC()
			n, h := cycle()
			if n != n1 || h != h1 {
				t.Errorf("%s: two collections after release, acquire built a new node or hierarchy", p.Name)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: acquire after two collections allocates %.0f objects, want 0 (nothing rebuilt)", p.Name, allocs)
		}
	}
}

// TestPoolBound: a geometry keeps at most pooledRuns nodes and pooledRuns ×
// Cores hierarchies idle; what is released beyond that is dropped.
func TestPoolBound(t *testing.T) {
	p := platform.A64FX()
	p.L2.MSHRs += 5 // a geometry no other test pools
	p.Cores = 2
	var nodes []*Node
	var hiers []*Hierarchy
	for i := 0; i < pooledRuns+2; i++ {
		n := AcquireNode(p)
		nodes = append(nodes, n)
		for c := 0; c < p.Cores+1; c++ {
			hiers = append(hiers, AcquireHierarchy(n))
		}
	}
	for _, h := range hiers {
		ReleaseHierarchy(h)
	}
	for _, n := range nodes {
		ReleaseNode(n)
	}
	if got := len(nodePool.idle[nodeGeomOf(p)]); got != pooledRuns {
		t.Errorf("%d idle nodes, want the bound %d", got, pooledRuns)
	}
	if got, want := len(hierPool.idle[geomOf(p)]), pooledRuns*p.Cores; got != want {
		t.Errorf("%d idle hierarchies, want the bound %d", got, want)
	}
}
