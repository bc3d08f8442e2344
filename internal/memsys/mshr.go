package memsys

import (
	"littleslaw/internal/events"
	"littleslaw/internal/queueing"
)

// MSHRStats counts miss-status-handling-register activity.
type MSHRStats struct {
	Allocations uint64 // entries created (unique line misses forwarded)
	Coalesced   uint64 // requests merged into an existing entry
	FullEvents  uint64 // allocation attempts rejected because the queue was full
}

// MSHR models a miss-status-handling-register file: the set of unique
// outstanding line misses at one cache level (§III-A). Requests to a line
// that is already outstanding coalesce onto the existing entry instead of
// generating duplicate memory traffic. The time-weighted occupancy of this
// structure is the paper's ground-truth MLP.
//
// Entries live by value in a fixed array sized to the register count, the
// outstanding ones packed at its front beside a parallel array of their
// line addresses. A lookup scans those addresses — at most a few dozen
// words, cheaper than hashing — and completing an entry moves the last
// outstanding one into its place, so the steady-state allocate/complete
// cycle of a run allocates nothing. Waiters are value-typed callbacks, and
// the waiter slices returned by Complete are handed back through Recycle
// and reused the same way.
type MSHR struct {
	capacity int
	sched    *events.Scheduler
	lines    []Line              // outstanding lines; len is the occupancy
	entries  []mshrEntry         // entries[i] is the register for lines[i]
	spare    [][]events.Callback // recycled waiter arrays (from Recycle)

	// Occ is the exact time-weighted occupancy of the register file.
	Occ   queueing.OccupancyStat
	Stats MSHRStats
}

type mshrEntry struct {
	allocated events.Time
	waiters   []events.Callback
}

// NewMSHR builds an MSHR file with the given capacity.
func NewMSHR(sched *events.Scheduler, capacity int) *MSHR {
	if capacity <= 0 {
		panic("memsys: MSHR capacity must be positive")
	}
	m := &MSHR{
		capacity: capacity,
		lines:    make([]Line, 0, capacity),
		entries:  make([]mshrEntry, capacity),
	}
	m.attach(sched)
	return m
}

// Capacity returns the register count.
func (m *MSHR) Capacity() int { return m.capacity }

// InFlight returns the current number of outstanding line misses.
func (m *MSHR) InFlight() int { return len(m.lines) }

// Full reports whether no register is free.
func (m *MSHR) Full() bool { return len(m.lines) >= m.capacity }

// find returns the register holding line, or -1.
func (m *MSHR) find(line Line) int {
	for i, l := range m.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// Outstanding reports whether line already has an entry.
func (m *MSHR) Outstanding(line Line) bool { return m.find(line) >= 0 }

// Allocate creates an entry for line. The caller must have checked Full and
// Outstanding; violating either panics, because both indicate a protocol
// bug in the hierarchy rather than a recoverable condition.
func (m *MSHR) Allocate(line Line) {
	if m.Full() {
		panic("memsys: MSHR allocate on full queue")
	}
	if m.find(line) >= 0 {
		panic("memsys: duplicate MSHR allocation")
	}
	e := &m.entries[len(m.lines)]
	m.lines = append(m.lines, line)
	e.allocated = m.sched.Now()
	if e.waiters == nil && len(m.spare) > 0 {
		e.waiters = m.spare[len(m.spare)-1]
		m.spare = m.spare[:len(m.spare)-1]
	}
	m.Occ.Arrive(m.sched.Now())
	m.Stats.Allocations++
}

// Coalesce attaches cb to the outstanding entry for line; cb fires when the
// line fills. The zero Callback counts the request without adding a
// waiter. It panics if the line is not outstanding.
func (m *MSHR) Coalesce(line Line, cb events.Callback) {
	i := m.find(line)
	if i < 0 {
		panic("memsys: coalesce on line with no MSHR entry")
	}
	if cb.Valid() {
		m.entries[i].waiters = append(m.entries[i].waiters, cb)
	}
	m.Stats.Coalesced++
}

// NoteFull records a rejected allocation attempt (an "MSHRQ full" event,
// the stall source Table I shows most vendors cannot expose).
func (m *MSHR) NoteFull() { m.Stats.FullEvents++ }

// Complete releases the entry for line and returns its waiters, which the
// caller invokes after any fill latency and then hands back via Recycle.
// Ownership of the returned slice transfers to the caller: the freed
// register may be re-allocated while the waiters run (a waiter can itself
// miss), so the entry detaches the slice rather than reusing it in place.
// It panics if line has no entry.
func (m *MSHR) Complete(line Line) []events.Callback {
	i := m.find(line)
	if i < 0 {
		panic("memsys: complete on line with no MSHR entry")
	}
	e := m.entries[i]
	last := len(m.lines) - 1
	m.lines[i], m.entries[i] = m.lines[last], m.entries[last]
	m.lines, m.entries[last] = m.lines[:last], mshrEntry{}
	now := m.sched.Now()
	m.Occ.Depart(now, now-e.allocated)
	return e.waiters
}

// Recycle returns a waiter slice obtained from Complete to the internal
// pool once its callbacks have run. The callbacks are cleared so their
// targets do not outlive the run.
func (m *MSHR) Recycle(ws []events.Callback) {
	if cap(ws) == 0 {
		return
	}
	clear(ws)
	m.spare = append(m.spare, ws[:0])
}

// ResetStats clears counters and restarts occupancy tracking, preserving
// in-flight entries (the warmup boundary case).
func (m *MSHR) ResetStats() {
	m.Stats = MSHRStats{}
	now := m.sched.Now()
	m.Occ.Reset(now)
	m.Occ.Set(now, len(m.lines))
}

// Reset empties the register file — a pooled run may have been abandoned
// with entries in flight — and drops its scheduler, keeping the entry and
// waiter arrays for the next attach.
func (m *MSHR) Reset() {
	for i := range m.entries {
		m.Recycle(m.entries[i].waiters)
		m.entries[i] = mshrEntry{}
	}
	m.lines = m.lines[:0]
	m.sched = nil
	m.Stats = MSHRStats{}
	m.Occ = queueing.OccupancyStat{}
}

// attach binds an empty register file to sched and starts occupancy
// tracking at its clock.
func (m *MSHR) attach(sched *events.Scheduler) {
	m.sched = sched
	m.Occ.Reset(sched.Now())
}
