package memsys

import (
	"littleslaw/internal/events"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
)

// DRAMStats aggregates memory-device activity over a measurement window.
type DRAMStats struct {
	Reads     uint64 // line reads serviced
	Writes    uint64 // line writes (writebacks) serviced
	RowHits   uint64
	RowMisses uint64
	// QueueWaitPs accumulates time requests spent queued at a busy bank;
	// BusWaitPs time spent waiting for the channel data bus.
	QueueWaitPs uint64
	BusWaitPs   uint64
	// LatencyPs accumulates full read round-trip time (for mean latency).
	LatencyPs uint64
}

// BytesMoved returns total traffic in bytes for a given line size.
func (s DRAMStats) BytesMoved(lineBytes int) uint64 {
	return (s.Reads + s.Writes) * uint64(lineBytes)
}

// MeanReadLatencyNs returns the average read round trip in nanoseconds.
func (s DRAMStats) MeanReadLatencyNs() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.LatencyPs) / float64(s.Reads) / 1e3
}

// dramReq is one request in flight at the device. Requests live by value
// in DRAM.reqs for their whole life and are named by their index there:
// in event arguments, and in the bank queues.
type dramReq struct {
	row    uint64
	ch, bk uint32
	write  bool
	done   events.Callback
	arrive events.Time
	lat    events.Duration // read round trip, fixed when the bank picks it
}

type bank struct {
	busy      bool
	openRow   uint64
	hasRow    bool
	hitStreak int
	queue     []uint32 // indices into DRAM.reqs, oldest first
}

type channel struct {
	busFreeAt events.Time
	banks     []bank
}

// Events the device schedules for itself.
const (
	evArrive   uint32 = iota // arg: request reaches the controller
	evBankFree               // arg: channel<<32 | bank finishes its occupancy window
	evReadDone               // arg: request's data is back at the requester
)

// DRAM models the node's memory device (DDR4, MCDRAM or HBM2) as
// address-interleaved channels, each with a shared data bus and independent
// banks with a row-buffer. Each bank schedules its queue row-hit-first
// (FR-FCFS, with a starvation cap), as real memory controllers do; loaded
// latency — and therefore the platform's bandwidth→latency curve — emerges
// from this queueing rather than from a fitted formula.
type DRAM struct {
	sched       *events.Scheduler
	linesPerRow uint64
	basePs      events.Duration
	rowHitPs    events.Duration
	rowMissPs   events.Duration
	transferPs  events.Duration
	chans       []channel
	reqs        []dramReq
	freeReqs    []uint32 // recycled reqs slots

	// Occ tracks outstanding read requests at the device, time-weighted.
	Occ   queueing.OccupancyStat
	Stats DRAMStats
}

// maxHitStreak bounds consecutive row-hit-first picks so interleaved rows
// are never starved.
const maxHitStreak = 16

// NewDRAM builds the memory device for a platform.
func NewDRAM(sched *events.Scheduler, p *platform.Platform) *DRAM {
	return newDRAM(sched, p.Memory, p.LineBytes)
}

func newDRAM(sched *events.Scheduler, m platform.MemoryConfig, lineBytes int) *DRAM {
	d := &DRAM{chans: make([]channel, m.Channels)}
	for i := range d.chans {
		d.chans[i].banks = make([]bank, m.BanksPerChannel)
	}
	d.attach(sched, m, lineBytes)
	return d
}

// attach binds an idle device to sched and takes its timing from m, which
// must have the channel and bank counts the device was built with.
func (d *DRAM) attach(sched *events.Scheduler, m platform.MemoryConfig, lineBytes int) {
	d.sched = sched
	d.linesPerRow = uint64(m.RowBytes / lineBytes)
	d.basePs = events.FromNanoseconds(m.BaseLatencyNs)
	d.rowHitPs = events.FromNanoseconds(m.RowHitNs)
	d.rowMissPs = events.FromNanoseconds(m.RowMissNs)
	d.transferPs = events.FromNanoseconds(m.TransferNs(lineBytes))
	d.Occ.Reset(sched.Now())
}

// Reset returns the device to idle — banks closed, queues and in-flight
// requests dropped (a pooled run may have been abandoned mid-flight) — and
// drops its scheduler, keeping every array for the next attach.
func (d *DRAM) Reset() {
	for ci := range d.chans {
		ch := &d.chans[ci]
		ch.busFreeAt = 0
		for bi := range ch.banks {
			ch.banks[bi] = bank{queue: ch.banks[bi].queue[:0]}
		}
	}
	clear(d.reqs) // drop the callbacks' targets
	d.reqs, d.freeReqs = d.reqs[:0], d.freeReqs[:0]
	d.sched = nil
	d.Occ = queueing.OccupancyStat{}
	d.Stats = DRAMStats{}
}

// ResetStats clears counters and restarts occupancy tracking at now.
func (d *DRAM) ResetStats() {
	d.Stats = DRAMStats{}
	d.Occ.Reset(d.sched.Now())
}

// mix64 is the splitmix64 finalizer, used to hash row indices into bank
// selections the way memory controllers XOR-scramble bank bits: without
// it, power-of-two-spaced buffers from different cores alias onto the
// same bank and serialize the whole machine.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// route decomposes a line address into channel, bank and row. Consecutive
// lines interleave across channels; within a channel consecutive lines
// share a row until it is exhausted, giving streams row-buffer locality;
// the bank is a hash of the row so that concurrent streams spread across
// the bank-level parallelism.
func (d *DRAM) route(line Line) (ch, bk uint32, row uint64) {
	nc := uint64(len(d.chans))
	ci := uint64(line) % nc
	inChan := uint64(line) / nc
	row = inChan / d.linesPerRow
	return uint32(ci), uint32(mix64(row) % uint64(len(d.chans[ci].banks))), row
}

// Access presents one line request to the device. For reads, done (if
// non-nil) fires when the data returns to the requester; writes complete
// in the background. The read latency is
//
//	base (interconnect round trip) + bank queue + bank service + bus queue + transfer
func (d *DRAM) Access(line Line, write bool, done func()) {
	d.request(line, write, events.Call(done))
}

// request is Access with a value-typed continuation, which is how the
// hierarchy and node call it: the per-miss path builds no closure.
func (d *DRAM) request(line Line, write bool, done events.Callback) {
	now := d.sched.Now()
	ch, bk, row := d.route(line)

	if write {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
		d.Occ.Arrive(now)
	}

	req := dramReq{row: row, ch: ch, bk: bk, write: write, done: done, arrive: now}
	var ri uint32
	if n := len(d.freeReqs); n > 0 {
		ri = d.freeReqs[n-1]
		d.freeReqs = d.freeReqs[:n-1]
		d.reqs[ri] = req
	} else {
		ri = uint32(len(d.reqs))
		d.reqs = append(d.reqs, req)
	}
	// The request reaches the controller after half the base round trip.
	d.sched.ScheduleAfter(d.basePs/2, events.Callback{Target: d, Kind: evArrive, Arg: uint64(ri)})
}

// Fire implements events.Handler.
func (d *DRAM) Fire(kind uint32, arg uint64) {
	switch kind {
	case evArrive:
		req := &d.reqs[arg]
		bk := &d.chans[req.ch].banks[req.bk]
		bk.queue = append(bk.queue, uint32(arg))
		if !bk.busy {
			d.serviceBank(req.ch, req.bk)
		}
	case evBankFree:
		d.serviceBank(uint32(arg>>32), uint32(arg))
	case evReadDone:
		// done may issue the next request into the slot freed here.
		req := d.reqs[arg]
		d.freeReqs = append(d.freeReqs, uint32(arg))
		d.Occ.Depart(d.sched.Now(), req.lat)
		if req.done.Valid() {
			req.done.Fire()
		}
	}
}

// serviceBank picks the next request for an idle bank (row-hit-first with
// a starvation cap), reserves the bank and bus, and schedules completion
// and the next scheduling round.
func (d *DRAM) serviceBank(ci, bi uint32) {
	ch := &d.chans[ci]
	bk := &ch.banks[bi]
	if len(bk.queue) == 0 {
		bk.busy = false
		return
	}
	bk.busy = true

	// FR-FCFS pick: oldest row hit, unless the hit streak is exhausted, in
	// which case the oldest request wins (guaranteeing progress).
	pick := 0
	if bk.hasRow && bk.hitStreak < maxHitStreak {
		for i, ri := range bk.queue {
			if d.reqs[ri].row == bk.openRow {
				pick = i
				break
			}
		}
	}
	ri := bk.queue[pick]
	bk.queue = append(bk.queue[:pick], bk.queue[pick+1:]...)
	req := &d.reqs[ri]

	now := d.sched.Now()
	var access, occupancy events.Duration
	if bk.hasRow && bk.openRow == req.row {
		// Row hits pipeline at the bus rate (consecutive CAS bursts).
		access, occupancy = d.rowHitPs, d.transferPs
		bk.hitStreak++
		d.Stats.RowHits++
	} else {
		access, occupancy = d.rowMissPs, d.rowMissPs
		bk.hitStreak = 0
		d.Stats.RowMisses++
	}
	bk.openRow, bk.hasRow = req.row, true
	d.Stats.QueueWaitPs += uint64(now - req.arrive - d.basePs/2)

	dataReady := now + access
	bankFree := now + occupancy

	// The data transfer queues on the channel bus independently of the
	// bank, which can begin its next activate as soon as its own occupancy
	// window ends — banks must not idle behind bus backpressure.
	busStart := max(dataReady, ch.busFreeAt)
	busDone := busStart + d.transferPs
	ch.busFreeAt = busDone
	d.Stats.BusWaitPs += uint64(busStart - dataReady)

	d.sched.Schedule(bankFree, events.Callback{Target: d, Kind: evBankFree, Arg: uint64(ci)<<32 | uint64(bi)})

	completeAt := busDone + d.basePs/2
	if req.write {
		if req.done.Valid() {
			d.sched.Schedule(completeAt, req.done)
		}
		d.freeReqs = append(d.freeReqs, ri)
		return
	}
	req.lat = completeAt - req.arrive
	d.Stats.LatencyPs += uint64(req.lat)
	d.sched.Schedule(completeAt, events.Callback{Target: d, Kind: evReadDone, Arg: uint64(ri)})
}
