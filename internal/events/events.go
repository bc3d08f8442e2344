// Package events provides a deterministic discrete-event simulation kernel.
//
// Simulated time is measured in integer picoseconds so that clock domains
// with non-integral nanosecond periods (e.g. a 2.1 GHz core whose cycle is
// 476.19 ps) compose without cumulative rounding drift. Events scheduled for
// the same instant fire in scheduling order, which makes every simulation in
// this repository bit-reproducible for a given seed and configuration.
package events

import (
	"math"
	"math/bits"
)

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

// key places an event in the total order (at, seq): seq is unique, so no
// two events compare equal.
type key struct {
	at  Time
	seq uint64
}

func (k key) before(o key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// The wheel's geometry. Bucket number b holds the events whose at lies in
// [b<<bucketShift, (b+1)<<bucketShift) and lives in ring slot b&wheelMask.
// Measured over the 1.78 M events the serving benchmark's thirteen
// miss_serve kernels schedule (deltaOctaves in events_test.go), 97 % land
// 2^10 to 2^18 ps ahead of now, 1.5 % nearer, 0.5 % past 2^20 ps and none
// at now, with about 300 pending. 512 ps buckets put nearly every event
// two or more buckets ahead of the cursor, and 300 events over the ~500
// buckets of their typical reach leave most buckets holding one event or
// none, so a sorted insert rarely walks. A ring of 2048 such buckets is a
// 2^20 ps (~1 us) horizon: only that last 0.5 % waits in the overflow heap.
const (
	bucketShift = 9
	wheelSize   = 1 << 11
	wheelMask   = wheelSize - 1
)

// node is an event's place in the queue: its key and, while it sits in a
// bucket, the slot of the event after it there.
type node struct {
	key
	next uint32
}

// far is an overflow-heap element: 24 pointer-free bytes, so a sift moves
// no pointer and costs no write barrier.
type far struct {
	key
	slot uint32
}

// Scheduler is a discrete-event simulation engine. The zero value is ready
// to use and starts at time zero.
//
// Pending events sit in a timing wheel: a ring of wheelSize buckets, each
// 2^bucketShift ps wide. A bucket is a list of slots linked through nodes,
// sorted by (at, seq), with a head and a tail; a bitmap marks the
// non-empty buckets. The cursor cur is the bucket number the wheel stands
// at, and the ring holds buckets cur to cur+wheelSize-1. An event past
// that horizon waits in an overflow min-heap, and every move of the cursor
// first files into the ring each heap event it brought within reach. So
// every ringed event precedes every heap event, and the head of the first
// non-empty bucket is the least pending (at, seq). Three rules keep it so:
//
//   - The cursor never passes now's bucket: RunUntil looks no further than
//     its deadline's. An event scheduled at or after now then never lands
//     behind the cursor, in a ring slot that stands for a later bucket.
//   - A new event carries the largest seq yet, so it goes after its
//     bucket's tail unless its at is earlier. That check compares the
//     whole key, not just at, so it holds for any event.
//   - An event moved in from the heap is older than those scheduled since,
//     so it takes the same ordered insert as a new one rather than an
//     append.
//
// Any correct priority queue over the total order (at, seq) pops the same
// sequence, which is all the determinism this repository's results rest
// on. Callbacks sit in a side slab with a free list; every array is reused
// for the life of the scheduler, so steady-state scheduling allocates
// nothing.
type Scheduler struct {
	now        Time
	seq        uint64
	cur        int64 // the wheel's bucket number, never past now's
	ringed     int   // events in the ring
	head, tail [wheelSize]uint32
	used       [wheelSize / 64]uint64 // bit r&63 of used[r>>6] marks ring slot r non-empty
	heap       []far                  // events past the horizon
	nodes      []node
	slab       []Callback
	free       []uint32 // recycled slots of nodes and slab
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
		s.nodes = append(s.nodes, node{})
	}
	s.seq++
	k := key{at: t, seq: s.seq}
	if int64(t>>bucketShift)-s.cur < wheelSize {
		s.file(slot, k)
		return
	}
	s.push(far{k, slot})
}

// file puts slot, with key k, into its bucket in (at, seq) order.
func (s *Scheduler) file(slot uint32, k key) {
	s.nodes[slot].key = k
	s.ringed++
	r := int64(k.at>>bucketShift) & wheelMask
	if bit := uint64(1) << (r & 63); s.used[r>>6]&bit == 0 {
		s.used[r>>6] |= bit
		s.head[r], s.tail[r] = slot, slot
		return
	}
	if t := s.tail[r]; s.nodes[t].before(k) {
		s.nodes[t].next = slot
		s.tail[r] = slot
		return
	}
	h := s.head[r]
	if k.before(s.nodes[h].key) {
		s.nodes[slot].next = h
		s.head[r] = slot
		return
	}
	// k falls between head and tail: walk to the last node before it.
	p := h
	for n := s.nodes[p].next; s.nodes[n].before(k); n = s.nodes[p].next {
		p = n
	}
	s.nodes[slot].next = s.nodes[p].next
	s.nodes[p].next = slot
}

// push adds f to the overflow heap. Sift up: move later parents down into
// the hole, then drop f in.
func (s *Scheduler) push(f far) {
	h := append(s.heap, f)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !f.before(h[parent].key) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = f
	s.heap = h
}

// popFar removes and returns the overflow heap's least element.
func (s *Scheduler) popFar() far {
	h := s.heap
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
		if r := c + 1; r < n && h[r].before(h[c].key) {
			c = r
		}
		if !h[c].before(last.key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// advance moves the cursor to bucket number b, then files into the ring
// every heap event now within its horizon.
func (s *Scheduler) advance(b int64) {
	s.cur = b
	for len(s.heap) > 0 && int64(s.heap[0].at>>bucketShift)-b < wheelSize {
		f := s.popFar()
		s.file(f.slot, f.key)
	}
}

// seek moves the cursor to the first bucket holding an event, but not past
// bucket number limit, and reports whether it got there.
func (s *Scheduler) seek(limit int64) bool {
	if s.ringed == 0 {
		if len(s.heap) == 0 {
			return false
		}
		b := int64(s.heap[0].at >> bucketShift)
		if b > limit {
			return false
		}
		s.advance(b)
		return true
	}
	d := s.distance()
	if d == 0 {
		return true
	}
	if s.cur+d > limit {
		return false
	}
	s.advance(s.cur + d)
	return true
}

// distance returns how many buckets past the cursor the first non-empty
// one lies. The ring must hold an event.
func (s *Scheduler) distance() int64 {
	r := s.cur & wheelMask
	if w := s.used[r>>6] >> (r & 63); w != 0 {
		return int64(bits.TrailingZeros64(w))
	}
	d := 64 - r&63
	for i := r>>6 + 1; ; i++ {
		if w := s.used[i&(int64(len(s.used))-1)]; w != 0 {
			return d + int64(bits.TrailingZeros64(w))
		}
		d += 64
	}
}

// ScheduleAfter queues cb to fire d picoseconds from now.
func (s *Scheduler) ScheduleAfter(d Duration, cb Callback) { s.Schedule(s.now+d, cb) }

// At schedules fn to run at absolute time t: Schedule with fn as the
// handler. A nil fn panics when its time comes.
func (s *Scheduler) At(t Time, fn func()) { s.Schedule(t, Callback{Target: Func(fn)}) }

// After schedules fn to run d picoseconds from now.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.now+d, fn) }

// Pending reports the number of events not yet dispatched.
func (s *Scheduler) Pending() int { return s.ringed + len(s.heap) }

// Reset drops every pending event and returns the scheduler to time zero,
// keeping its arrays. The slab is cleared so that a pooled scheduler does
// not keep the previous run's handlers alive.
func (s *Scheduler) Reset() {
	clear(s.slab)
	clear(s.used[:])
	s.now, s.seq, s.cur, s.ringed = 0, 0, 0, 0
	s.heap, s.nodes, s.slab, s.free = s.heap[:0], s.nodes[:0], s.slab[:0], s.free[:0]
}

// Step dispatches the next event, advancing the clock to its timestamp.
// It reports whether an event was dispatched.
func (s *Scheduler) Step() bool {
	if !s.seek(math.MaxInt64) {
		return false
	}
	s.pop()
	return true
}

// pop dispatches the head of the cursor's bucket, which seek has found
// non-empty.
func (s *Scheduler) pop() {
	r := s.cur & wheelMask
	slot := s.head[r]
	if slot == s.tail[r] {
		s.used[r>>6] &^= 1 << (r & 63)
	} else {
		s.head[r] = s.nodes[slot].next
	}
	s.ringed--
	cb := s.slab[slot]
	s.free = append(s.free, slot)
	s.now = s.nodes[slot].at
	cb.Fire()
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
	limit := int64(deadline >> bucketShift)
	for s.seek(limit) && s.nodes[s.head[s.cur&wheelMask]].at <= deadline {
		s.pop()
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
