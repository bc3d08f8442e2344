// Package cpu models the execution side of the node: hardware threads that
// issue memory operations against a core's memory hierarchy.
//
// The model deliberately abstracts the out-of-order pipeline into the two
// quantities the paper's metric cares about (§III-A): how quickly a thread
// can issue memory operations (the compute gap between operations, shaped
// by vectorization and scalar pipeline quality) and how many demand misses
// it can keep in flight at once (the demand window, shaped by ROB/load
// queue depth and capped in hardware by the MSHR files in memsys).
package cpu

import (
	"littleslaw/internal/events"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
)

// Op is one memory operation produced by a Generator.
type Op struct {
	Addr uint64      // byte address
	Kind memsys.Kind // Load, Store, PrefetchL2, PrefetchL1
	// GapCycles is the compute delay, in core cycles, between the issue of
	// the previous operation and this one: the instruction work separating
	// memory operations in the loop body.
	GapCycles float64
	// Work is the number of application elements this operation completes;
	// the simulator sums it to compute throughput-based speedups.
	Work float64
	// Barrier makes the thread drain all outstanding demand operations
	// before issuing this one — the dependency structure of wavefront
	// sweeps (SNAP) and other serialising recurrences.
	Barrier bool
	// Async marks a store that retires through the store buffer: it
	// occupies neither the demand window nor a barrier, draining in the
	// background (it still generates its cache and memory traffic).
	Async bool
}

// Generator produces a hardware thread's memory-operation stream.
// Implementations are single-threaded; each hardware thread owns one.
type Generator interface {
	// Next returns the next operation, or ok=false when the stream ends.
	Next() (op Op, ok bool)
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func() (Op, bool)

// Next implements Generator.
func (f GeneratorFunc) Next() (Op, bool) { return f() }

// SliceGen replays a fixed slice of operations (test helper).
type SliceGen struct {
	Ops []Op
	pos int
}

// Next implements Generator.
func (g *SliceGen) Next() (Op, bool) {
	if g.pos >= len(g.Ops) {
		return Op{}, false
	}
	op := g.Ops[g.pos]
	g.pos++
	return op, true
}

// ThreadStats reports a hardware thread's progress.
type ThreadStats struct {
	Issued    uint64  // operations issued
	Retired   uint64  // demand operations completed
	Work      float64 // application elements completed
	FinishPs  events.Time
	Finished  bool
	WindowCap int
	// LoadLatencyPs accumulates issue-to-complete time of blocking demand
	// operations; LoadLatencyPs/Retired is the mean load-to-use latency a
	// PEBS-style counter would sample (§II).
	LoadLatencyPs uint64
}

// MeanLoadLatencyNs returns the thread's average demand load-to-use
// latency in nanoseconds.
func (s ThreadStats) MeanLoadLatencyNs() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.LoadLatencyPs) / float64(s.Retired) / 1e3
}

// Thread is one hardware thread executing a Generator against a Hierarchy.
type Thread struct {
	sched  *events.Scheduler
	clock  events.Clock
	hier   *memsys.Hierarchy
	gen    Generator
	window int
	// gapScale multiplies every operation's compute gap; the simulator sets
	// it from SMT occupancy and the platform's scalar issue penalty.
	gapScale float64

	// inflight holds the issue time and work of each demand operation in
	// the window, named by slot in its completion callback; freeSlots are
	// the unused ones. Both are sized to the window once.
	inflight  []inflightOp
	freeSlots []uint32

	outstanding  int
	nextReady    events.Time
	wakePending  bool
	exhausted    bool
	pendingOp    Op
	hasPendingOp bool

	// OnFinish, if set, runs once when the thread fully drains.
	OnFinish func()

	Stats ThreadStats
}

type inflightOp struct {
	issued events.Time
	work   float64
}

// Events a thread schedules for itself or hands the hierarchy as a demand
// operation's completion.
const (
	evWake   uint32 = iota // the compute gap before the next operation has elapsed
	evRetire               // arg: inflight slot of the demand operation whose data arrived
)

// NewThread builds a thread. window is the maximum number of demand
// operations kept in flight; gapScale scales compute gaps (≥1).
func NewThread(sched *events.Scheduler, plat *platform.Platform, hier *memsys.Hierarchy, gen Generator, window int, gapScale float64) *Thread {
	if window < 1 {
		window = 1
	}
	if gapScale < 1 {
		gapScale = 1
	}
	t := &Thread{
		sched:     sched,
		clock:     plat.Clock(),
		hier:      hier,
		gen:       gen,
		window:    window,
		gapScale:  gapScale,
		inflight:  make([]inflightOp, window),
		freeSlots: make([]uint32, window),
		Stats:     ThreadStats{WindowCap: window},
	}
	for i := range t.freeSlots {
		t.freeSlots[i] = uint32(i)
	}
	return t
}

// Fire implements events.Handler.
func (t *Thread) Fire(kind uint32, arg uint64) {
	switch kind {
	case evWake:
		t.wakePending = false
	case evRetire:
		op := t.inflight[arg]
		t.freeSlots = append(t.freeSlots, uint32(arg))
		t.outstanding--
		t.Stats.Retired++
		t.Stats.Work += op.work
		t.Stats.LoadLatencyPs += uint64(t.sched.Now() - op.issued)
	}
	t.pump()
}

// Start begins execution. The thread drives itself via scheduler events and
// completion callbacks until its generator is exhausted and all outstanding
// operations have retired.
func (t *Thread) Start() { t.pump() }

// Finished reports whether the thread has fully drained.
func (t *Thread) Finished() bool { return t.Stats.Finished }

// Hier returns the hierarchy the thread issues into.
func (t *Thread) Hier() *memsys.Hierarchy { return t.hier }

// Outstanding returns the number of demand operations in flight.
func (t *Thread) Outstanding() int { return t.outstanding }

// pump issues as many operations as the window and compute pacing allow.
func (t *Thread) pump() {
	for {
		if t.exhausted {
			t.maybeFinish()
			return
		}
		if t.outstanding >= t.window {
			return // a completion callback will re-pump
		}
		now := t.sched.Now()
		if now < t.nextReady {
			if !t.wakePending {
				t.wakePending = true
				t.sched.Schedule(t.nextReady, events.Callback{Target: t, Kind: evWake})
			}
			return
		}
		op, ok := t.nextOp()
		if !ok {
			t.exhausted = true
			t.maybeFinish()
			return
		}
		if op.Barrier && t.outstanding > 0 {
			// Stash the op; a completion callback will re-pump.
			t.pendingOp, t.hasPendingOp = op, true
			return
		}
		t.issue(op, now)
	}
}

func (t *Thread) nextOp() (Op, bool) {
	if t.hasPendingOp {
		t.hasPendingOp = false
		return t.pendingOp, true
	}
	return t.gen.Next()
}

func (t *Thread) issue(op Op, now events.Time) {
	t.Stats.Issued++
	t.nextReady = now + t.clock.Cycles(op.GapCycles*t.gapScale)
	work := op.Work
	switch {
	case op.Async && (op.Kind == memsys.Load || op.Kind == memsys.Store):
		t.hier.Issue(op.Addr, op.Kind, events.Callback{})
		t.Stats.Retired++
		t.Stats.Work += work
	case op.Kind == memsys.Load || op.Kind == memsys.Store:
		t.outstanding++
		slot := t.freeSlots[len(t.freeSlots)-1]
		t.freeSlots = t.freeSlots[:len(t.freeSlots)-1]
		t.inflight[slot] = inflightOp{issued: now, work: work}
		t.hier.Issue(op.Addr, op.Kind, events.Callback{Target: t, Kind: evRetire, Arg: uint64(slot)})
	default:
		// Prefetches retire immediately and do not occupy the window.
		t.hier.Issue(op.Addr, op.Kind, events.Callback{})
		t.Stats.Work += work
	}
}

func (t *Thread) maybeFinish() {
	if t.exhausted && t.outstanding == 0 && !t.Stats.Finished {
		t.Stats.Finished = true
		t.Stats.FinishPs = t.sched.Now()
		if t.OnFinish != nil {
			t.OnFinish()
		}
	}
}

// Core groups the hardware threads sharing one physical core's hierarchy.
type Core struct {
	Hier    *memsys.Hierarchy
	Threads []*Thread
}

// NewCore attaches a core with the given per-thread generators to node.
// window is the per-thread demand window; gapScale the per-thread compute
// gap multiplier (from SMT sharing and scalar pipeline penalties).
func NewCore(node *memsys.Node, gens []Generator, window int, gapScale float64) *Core {
	return NewCoreWith(node, memsys.NewHierarchy(node), gens, window, gapScale)
}

// NewCoreWith is NewCore with a caller-supplied hierarchy (e.g. one drawn
// from the memsys pool), which must already be attached to node.
func NewCoreWith(node *memsys.Node, hier *memsys.Hierarchy, gens []Generator, window int, gapScale float64) *Core {
	c := &Core{Hier: hier, Threads: make([]*Thread, 0, len(gens))}
	for _, g := range gens {
		c.Threads = append(c.Threads, NewThread(node.Sched, node.Plat, hier, g, window, gapScale))
	}
	return c
}

// Start launches all threads.
func (c *Core) Start() {
	for _, t := range c.Threads {
		t.Start()
	}
}

// Finished reports whether every thread has drained.
func (c *Core) Finished() bool {
	for _, t := range c.Threads {
		if !t.Finished() {
			return false
		}
	}
	return true
}

// Work sums completed work across threads.
func (c *Core) Work() float64 {
	var w float64
	for _, t := range c.Threads {
		w += t.Stats.Work
	}
	return w
}
