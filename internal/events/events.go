// Package events provides a deterministic discrete-event simulation kernel.
//
// Simulated time is measured in integer picoseconds so that clock domains
// with non-integral nanosecond periods (e.g. a 2.1 GHz core whose cycle is
// 476.19 ps) compose without cumulative rounding drift. Events scheduled for
// the same instant fire in scheduling order, which makes every simulation in
// this repository bit-reproducible for a given seed and configuration.
package events

// Time is an absolute simulated timestamp in picoseconds.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration = Time

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromNanoseconds converts a floating-point nanosecond count to a Time.
func FromNanoseconds(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// Clock describes a fixed-frequency clock domain and converts between
// cycle counts and simulated time.
type Clock struct {
	period Duration // picoseconds per cycle
}

// NewClock returns a clock running at the given frequency in hertz.
// It panics if hz is not positive.
func NewClock(hz float64) Clock {
	if hz <= 0 {
		panic("events: clock frequency must be positive")
	}
	return Clock{period: Duration(1e12/hz + 0.5)}
}

// Period returns the duration of one cycle.
func (c Clock) Period() Duration { return c.period }

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n float64) Duration { return Duration(n*float64(c.period) + 0.5) }

// ToCycles converts a duration to a (fractional) cycle count.
func (c Clock) ToCycles(d Duration) float64 { return float64(d) / float64(c.period) }

// Handler receives the events scheduled for it. kind selects what the
// target should do and arg carries the event's one word of state (a line
// address, a slot index); both are the scheduler's to carry and the
// handler's to interpret. Handlers are long-lived simulation objects with
// pointer receivers, so scheduling an event for one allocates nothing.
type Handler interface {
	Fire(kind uint32, arg uint64)
}

// Func adapts a plain function to Handler. Func values are pointer-shaped,
// so the conversion to Handler does not allocate either; only the closure
// itself, if the caller built one, does.
type Func func()

// Fire implements Handler.
func (f Func) Fire(uint32, uint64) { f() }

// Callback is a value-typed continuation: "fire kind on target with arg".
// It is what rides through queues where a closure used to. The zero
// Callback means "nobody is waiting".
type Callback struct {
	Target Handler
	Kind   uint32
	Arg    uint64
}

// Call wraps fn as a Callback; a nil fn gives the zero Callback.
func Call(fn func()) Callback {
	if fn == nil {
		return Callback{}
	}
	return Callback{Target: Func(fn)}
}

// Valid reports whether c has a target.
func (c Callback) Valid() bool { return c.Target != nil }

// Fire invokes the callback now.
func (c Callback) Fire() { c.Target.Fire(c.Kind, c.Arg) }

// key is what the heap orders and sifts: 24 pointer-free bytes, so a sift
// moves no pointer and costs no write barrier. (at, seq) is a total order
// because seq is unique; slot names the payload in Scheduler.slab.
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// Scheduler is a discrete-event simulation engine. The zero value is ready
// to use and starts at time zero.
//
// Pending events are a binary min-heap of keys over a side slab of
// Callbacks with a free list; all three arrays are reused for the life of
// the scheduler, so steady-state scheduling allocates nothing. Any correct
// priority queue over the total order (at, seq) pops the same sequence,
// which is all the determinism this repository's results rest on.
type Scheduler struct {
	now  Time
	seq  uint64
	heap []key
	slab []Callback
	free []uint32 // recycled slab slots
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Schedule queues cb to fire at absolute time t. Scheduling in the past
// panics, because it would silently corrupt causality.
func (s *Scheduler) Schedule(t Time, cb Callback) {
	if t < s.now {
		panic("events: scheduling an event in the past")
	}
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.slab[slot] = cb
	} else {
		slot = uint32(len(s.slab))
		s.slab = append(s.slab, cb)
	}
	s.seq++
	k := key{at: t, seq: s.seq, slot: slot}
	// Sift up: move later parents down into the hole, then drop k in.
	h := append(s.heap, k)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
	s.heap = h
}

// ScheduleAfter queues cb to fire d picoseconds from now.
func (s *Scheduler) ScheduleAfter(d Duration, cb Callback) { s.Schedule(s.now+d, cb) }

// At schedules fn to run at absolute time t: Schedule with fn as the
// handler. A nil fn panics when its time comes.
func (s *Scheduler) At(t Time, fn func()) { s.Schedule(t, Callback{Target: Func(fn)}) }

// After schedules fn to run d picoseconds from now.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.now+d, fn) }

// Pending reports the number of events not yet dispatched.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Reset drops every pending event and returns the scheduler to time zero,
// keeping its arrays. The slab is cleared so that a pooled scheduler does
// not keep the previous run's handlers alive.
func (s *Scheduler) Reset() {
	clear(s.slab)
	s.now, s.seq = 0, 0
	s.heap, s.slab, s.free = s.heap[:0], s.slab[:0], s.free[:0]
}

// Step dispatches the next event, advancing the clock to its timestamp.
// It reports whether an event was dispatched.
func (s *Scheduler) Step() bool {
	h := s.heap
	if len(h) == 0 {
		return false
	}
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	s.heap = h
	// Sift down: move the earlier child up into the hole until last fits.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	cb := s.slab[top.slot]
	s.free = append(s.free, top.slot)
	s.now = top.at
	cb.Fire()
	return true
}

// Run dispatches events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil dispatches events with timestamps at or before deadline, then
// advances the clock to deadline. Events scheduled beyond deadline remain
// queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunWhile dispatches events while cond returns true and events remain.
func (s *Scheduler) RunWhile(cond func() bool) {
	for cond() && s.Step() {
	}
}
