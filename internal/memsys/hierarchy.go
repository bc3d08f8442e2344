package memsys

import (
	"math/bits"

	"littleslaw/internal/events"
	"littleslaw/internal/platform"
)

// HierarchyStats aggregates per-core memory-hierarchy activity.
type HierarchyStats struct {
	DemandLoads  uint64
	DemandStores uint64
	SWPrefetches uint64

	// L1FullStallPs / L2FullStallPs accumulate the time demand requests
	// spent waiting for a free MSHR — the "MSHRQ-full stalls" of Table I.
	L1FullStallPs uint64
	L2FullStallPs uint64

	HWPrefetchDropped uint64 // hardware prefetches dropped on a full L2 MSHRQ
	SWPrefetchDropped uint64 // software prefetches dropped (bounded retry queue)

	// Memory reads initiated below L2, by originating request kind. Their
	// ratio is the "fraction of memory requests generated from hardware
	// prefetcher versus demand loads" the recipe uses to decide whether the
	// L1 or the L2 MSHRQ is the binding structure (§III-D).
	L2MissDemand     uint64
	L2MissHWPrefetch uint64
	L2MissSWPrefetch uint64
}

// PrefetchedReadFraction returns the fraction of memory reads initiated by
// prefetchers (hardware or software) rather than demand misses.
func (s HierarchyStats) PrefetchedReadFraction() float64 {
	total := s.L2MissDemand + s.L2MissHWPrefetch + s.L2MissSWPrefetch
	if total == 0 {
		return 0
	}
	return float64(s.L2MissHWPrefetch+s.L2MissSWPrefetch) / float64(total)
}

// Node is the memory system shared by all cores: the memory device and,
// on Skylake, the shared L3. A simulated machine has one Node — built by
// NewNode on the caller's scheduler, or rented with a scheduler of its own
// from AcquireNode — and each core attaches a Hierarchy to it.
//
// When the platform configures a memory-side cache (KNL cache mode), DRAM
// is the fast tier, SlowDRAM the backing store, and a direct-mapped
// line-granular tag array decides which serves each fetch.
type Node struct {
	Sched *events.Scheduler
	Plat  *platform.Platform
	DRAM  *DRAM

	L3      *Cache // nil when the platform has no shared LLC
	l3HitPs events.Duration

	// Memory-side cache state (nil/empty without one).
	SlowDRAM  *DRAM
	mcTags    []uint64 // tag per direct-mapped set; 0 = invalid
	mcSetMask uint64
	MCHits    uint64
	MCMisses  uint64

	lineShift uint
}

// NewNode builds the shared memory side for a platform.
func NewNode(sched *events.Scheduler, p *platform.Platform) *Node {
	n := &Node{Sched: sched}
	if p.L3 != nil {
		n.L3 = NewCache(p.L3.Sets(p.LineBytes), p.L3.Ways)
	}
	if mc := p.MemCache; mc != nil {
		n.DRAM = newDRAM(sched, mc.Fast, p.LineBytes)
		n.SlowDRAM = newDRAM(sched, p.Memory, p.LineBytes)
		n.mcTags = make([]uint64, mcSets(p))
		n.mcSetMask = uint64(len(n.mcTags) - 1)
	} else {
		n.DRAM = newDRAM(sched, p.Memory, p.LineBytes)
	}
	n.attach(p)
	return n
}

// mcSets returns the memory-side cache's set count: its capacity in lines,
// rounded down to a power of two for masking.
func mcSets(p *platform.Platform) int {
	sets := p.MemCache.SizeBytes / p.LineBytes
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	return sets
}

// attach points an idle node at platform p, which must have the geometry
// (nodeGeomOf) the node was built with, and takes every timing from it.
func (n *Node) attach(p *platform.Platform) {
	n.Plat = p
	n.lineShift = uint(bits.TrailingZeros(uint(p.LineBytes)))
	if n.L3 != nil {
		n.l3HitPs = p.Clock().Cycles(p.L3.HitCycles)
	}
	if n.SlowDRAM != nil {
		n.DRAM.attach(n.Sched, p.MemCache.Fast, p.LineBytes)
		n.SlowDRAM.attach(n.Sched, p.Memory, p.LineBytes)
	} else {
		n.DRAM.attach(n.Sched, p.Memory, p.LineBytes)
	}
}

// Reset returns the node to the state NewNode leaves it in, short of the
// platform binding attach restores: its scheduler emptied and back at time
// zero, the L3 and the memory-side tags empty, both devices idle, counters
// zero. It is sound after a run abandoned mid-flight, and it leaves the
// node holding no reference to the run that used it.
func (n *Node) Reset() {
	n.Sched.Reset()
	n.Plat = nil
	if n.L3 != nil {
		n.L3.Reset()
	}
	n.DRAM.Reset()
	if n.SlowDRAM != nil {
		n.SlowDRAM.Reset()
		clear(n.mcTags)
		n.MCHits, n.MCMisses = 0, 0
	}
}

// mcLookup probes and updates the memory-side cache for line, returning
// whether the fast tier holds it. Misses install the line (direct-mapped
// eviction of the previous occupant). The set index is hashed: physical
// page scattering spreads virtual arenas across the cache, and without it
// power-of-two-spaced per-core arenas would alias onto the same sets.
func (n *Node) mcLookup(line Line) bool {
	set := mix64(uint64(line)) & n.mcSetMask
	tag := uint64(line) | 1<<63 // bit 63 marks validity
	if n.mcTags[set] == tag {
		n.MCHits++
		return true
	}
	n.mcTags[set] = tag
	n.MCMisses++
	return false
}

// LineOf converts a byte address to a line address on this platform.
func (n *Node) LineOf(addr uint64) Line { return Line(addr >> n.lineShift) }

// ResetStats clears DRAM and L3 counters.
func (n *Node) ResetStats() {
	n.DRAM.ResetStats()
	if n.SlowDRAM != nil {
		n.SlowDRAM.ResetStats()
		n.MCHits, n.MCMisses = 0, 0
	}
	if n.L3 != nil {
		n.L3.ResetStats()
	}
}

// MCHitFraction returns the memory-side cache hit rate (0 without one).
func (n *Node) MCHitFraction() float64 {
	t := n.MCHits + n.MCMisses
	if t == 0 {
		return 0
	}
	return float64(n.MCHits) / float64(t)
}

// fetch retrieves line from beyond h's L2: L3 if present, then memory
// (through the memory-side cache when configured). h hears evFillL2,
// evMemData or evFarMemData when the line arrives, according to where it
// came from.
func (n *Node) fetch(line Line, h *Hierarchy) {
	if n.L3 != nil && n.L3.Access(line, false) {
		n.Sched.ScheduleAfter(n.l3HitPs, events.Callback{Target: h, Kind: evFillL2, Arg: uint64(line)})
		return
	}
	if n.SlowDRAM != nil && !n.mcLookup(line) {
		// Memory-side cache miss: the far tier services the request.
		n.SlowDRAM.request(line, false, events.Callback{Target: h, Kind: evFarMemData, Arg: uint64(line)})
		return
	}
	n.DRAM.request(line, false, events.Callback{Target: h, Kind: evMemData, Arg: uint64(line)})
}

// install places a line arriving from memory in the L3, if there is one.
func (n *Node) install(line Line) {
	if n.L3 != nil {
		if victim, dirty := n.L3.Fill(line, false); dirty {
			n.DRAM.request(victim, true, events.Callback{})
		}
	}
}

// writeback sends a dirty line from a core's L2 toward memory.
func (n *Node) writeback(line Line) {
	if n.L3 != nil {
		if victim, dirty := n.L3.Fill(line, true); dirty {
			n.DRAM.request(victim, true, events.Callback{})
		}
		return
	}
	n.DRAM.request(line, true, events.Callback{})
}

type pendingReq struct {
	line  Line
	kind  Kind
	done  events.Callback
	since events.Time
}

// Events a hierarchy schedules for itself, or hears from the node and the
// memory devices. arg is the line address; evL2Lookup and evFillL1 also
// carry the access Kind above the low byte of the event kind.
const (
	evL2Lookup   uint32 = iota // L1 lookup missed: present the line to the L2
	evFetch                    // L2 lookup missed: fetch the line from the node
	evFillL2                   // the line arrived from the L3
	evMemData                  // the line arrived from memory
	evFarMemData               // the line arrived from the far tier behind the memory-side cache
	evFillL1                   // the line is in the L2: fill the L1

	evKindShift = 8
	evMask      = 1<<evKindShift - 1
)

// Hierarchy is one core's private memory hierarchy: L1 and L2 caches with
// their MSHR files and the L2 hardware stream prefetcher, attached to the
// node-shared L3/memory. SMT threads on the core share the Hierarchy, and
// therefore its MSHRs — the resource interaction behind the paper's SMT
// guidance (§III-C).
type Hierarchy struct {
	node *Node

	L1, L2   *Cache
	L1M, L2M *MSHR
	PF       *StreamPrefetcher

	l1HitPs events.Duration
	l2HitPs events.Duration

	// Pending requests stalled on a full MSHR file, consumed from a head
	// index so draining does not reslice (and therefore never reallocates)
	// the backing array; the array compacts whenever it fully drains.
	pendingL1  []pendingReq
	pendingL2  []pendingReq
	pendL1Head int
	pendL2Head int
	maxSWPend  int

	// NoCoalesce disables MSHR request merging for ablation studies: a
	// request to an already-outstanding line still waits on the existing
	// entry (the data dependency is real) but issues a duplicate memory
	// read, the traffic a coalescing-free design would generate.
	NoCoalesce bool

	Stats HierarchyStats
}

// NewHierarchy attaches a fresh core hierarchy to node.
func NewHierarchy(node *Node) *Hierarchy {
	p := node.Plat
	h := &Hierarchy{
		L1:  NewCache(p.L1.Sets(p.LineBytes), p.L1.Ways),
		L2:  NewCache(p.L2.Sets(p.LineBytes), p.L2.Ways),
		L1M: NewMSHR(node.Sched, p.L1.MSHRs),
		L2M: NewMSHR(node.Sched, p.L2.MSHRs),
	}
	h.PF = NewStreamPrefetcher(p.Prefetcher, p.LineBytes, func(line Line) {
		h.l2Request(line, hwPrefetch, events.Callback{})
	})
	h.attach(node)
	return h
}

// attach binds an empty hierarchy to node, whose platform must have the
// cache geometry and prefetcher configuration (geomOf) the hierarchy was
// built with, and takes its timing from that platform.
func (h *Hierarchy) attach(node *Node) {
	p := node.Plat
	clk := p.Clock()
	h.node = node
	h.L1M.attach(node.Sched)
	h.L2M.attach(node.Sched)
	h.l1HitPs = clk.Cycles(p.L1.HitCycles)
	h.l2HitPs = clk.Cycles(p.L2.HitCycles)
	h.maxSWPend = p.L2.MSHRs
}

// ResetStats clears all counters on the core, preserving cache and MSHR state.
func (h *Hierarchy) ResetStats() {
	h.Stats = HierarchyStats{}
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.L1M.ResetStats()
	h.L2M.ResetStats()
	h.PF.ResetStats()
}

// Reset returns the hierarchy to the state NewHierarchy leaves it in, short
// of the node binding attach restores, keeping every allocated array (cache
// ways, MSHR entries, prefetcher table, pending queues) so a pooled
// hierarchy serves a new run without reconstruction. It is sound after a
// run abandoned mid-flight, and it leaves the hierarchy holding no
// reference to the node or the threads of the run that used it.
func (h *Hierarchy) Reset() {
	h.node = nil
	h.L1.Reset()
	h.L2.Reset()
	h.L1M.Reset()
	h.L2M.Reset()
	h.PF.Reset()
	clear(h.pendingL1[:cap(h.pendingL1)])
	clear(h.pendingL2[:cap(h.pendingL2)])
	h.pendingL1 = h.pendingL1[:0]
	h.pendingL2 = h.pendingL2[:0]
	h.pendL1Head, h.pendL2Head = 0, 0
	h.NoCoalesce = false
	h.Stats = HierarchyStats{}
}

// pendL2Len returns the number of queued L2 requests not yet drained.
func (h *Hierarchy) pendL2Len() int { return len(h.pendingL2) - h.pendL2Head }

// Access presents one byte-addressed memory operation to the hierarchy.
// For demand loads and stores, done fires when the data is available in L1
// (load-to-use). For software prefetches done may be nil; if provided it
// fires when the prefetch has been accepted (not completed), since prefetch
// instructions retire without waiting.
func (h *Hierarchy) Access(addr uint64, kind Kind, done func()) {
	h.Issue(addr, kind, events.Call(done))
}

// Issue is Access with a value-typed continuation in place of the closure
// (the zero Callback for "nobody waits"), which is how hardware threads
// call it: a miss that rides on callbacks allocates nothing.
func (h *Hierarchy) Issue(addr uint64, kind Kind, done events.Callback) {
	line := h.node.LineOf(addr)
	switch kind {
	case Load:
		h.Stats.DemandLoads++
	case Store:
		h.Stats.DemandStores++
	case PrefetchL2, PrefetchL1:
		h.Stats.SWPrefetches++
	}

	if kind == PrefetchL2 {
		// L2-targeted software prefetch bypasses the L1 and its MSHRs.
		// done (if any) fires when the prefetch resolves — the line reaches
		// L2, or the request is dropped — so callers that flow-control
		// prefetch streams (e.g. the X-Mem load generators) can reissue.
		h.l2Request(line, PrefetchL2, done)
		return
	}

	if h.L1.Access(line, kind == Store) {
		if done.Valid() {
			h.node.Sched.ScheduleAfter(h.l1HitPs, done)
		}
		return
	}
	h.l1Miss(pendingReq{line: line, kind: kind, done: done, since: h.node.Sched.Now()})
}

// Fire implements events.Handler: one miss is a chain of these events, each
// carrying only the line (and, where the fill needs it, the access kind).
func (h *Hierarchy) Fire(kind uint32, arg uint64) {
	line := Line(arg)
	switch kind & evMask {
	case evL2Lookup:
		// The L1 fill waits on the L2 with the same line and kind.
		fill := events.Callback{Target: h, Kind: evFillL1 | kind&^evMask, Arg: arg}
		h.l2Request(line, Kind(kind>>evKindShift), fill)
	case evFetch:
		h.node.fetch(line, h)
	case evFarMemData:
		// The fill into the fast tier rides in the background.
		h.node.DRAM.request(line, true, events.Callback{})
		fallthrough
	case evMemData:
		h.node.install(line)
		fallthrough
	case evFillL2:
		h.fillL2(line)
	case evFillL1:
		h.fillL1(line, Kind(kind>>evKindShift) == Store)
	}
}

func (h *Hierarchy) l1Miss(req pendingReq) {
	if h.L1M.Outstanding(req.line) {
		h.L1M.Coalesce(req.line, req.done)
		if h.NoCoalesce {
			h.node.DRAM.request(req.line, false, events.Callback{})
		}
		return
	}
	if h.L1M.Full() {
		h.L1M.NoteFull()
		h.pendingL1 = append(h.pendingL1, req)
		return
	}
	h.L1M.Allocate(req.line)
	if req.done.Valid() {
		h.L1M.Coalesce(req.line, req.done)
		h.L1M.Stats.Coalesced-- // first waiter is not a coalesced request
	}
	// Miss detection takes an L1 lookup; then the request goes to L2.
	h.node.Sched.ScheduleAfter(h.l1HitPs, events.Callback{
		Target: h, Kind: evL2Lookup | uint32(req.kind)<<evKindShift, Arg: uint64(req.line)})
}

// l2Request looks up line in the L2 on behalf of a demand miss from L1, a
// software L2 prefetch, or the hardware prefetcher. onData (may be the zero
// Callback) fires when the line is present in L2.
func (h *Hierarchy) l2Request(line Line, kind Kind, onData events.Callback) {
	if kind.isDemand() || kind == PrefetchL1 {
		h.PF.Observe(line)
	}
	if h.L2.Access(line, false) {
		if onData.Valid() {
			h.node.Sched.ScheduleAfter(h.l2HitPs, onData)
		}
		return
	}
	h.l2Miss(pendingReq{line: line, kind: kind, done: onData, since: h.node.Sched.Now()})
}

func (h *Hierarchy) l2Miss(req pendingReq) {
	if h.L2M.Outstanding(req.line) {
		h.L2M.Coalesce(req.line, req.done)
		if h.NoCoalesce {
			h.node.DRAM.request(req.line, false, events.Callback{})
		}
		return
	}
	if h.L2M.Full() {
		h.L2M.NoteFull()
		switch req.kind {
		case hwPrefetch:
			h.Stats.HWPrefetchDropped++
		case PrefetchL2:
			// Fire-and-forget software prefetches drop on a full MSHR
			// file, as on real hardware; flow-controlled issuers (those
			// waiting for the resolve callback) queue within a bounded
			// buffer instead.
			if req.done.Valid() && h.pendL2Len() < h.maxSWPend {
				h.pendingL2 = append(h.pendingL2, req)
			} else {
				h.Stats.SWPrefetchDropped++
				if req.done.Valid() {
					h.node.Sched.ScheduleAfter(0, req.done)
				}
			}
		default:
			h.pendingL2 = append(h.pendingL2, req)
		}
		return
	}
	h.L2M.Allocate(req.line)
	switch req.kind {
	case hwPrefetch:
		h.Stats.L2MissHWPrefetch++
	case PrefetchL2:
		h.Stats.L2MissSWPrefetch++
	default:
		h.Stats.L2MissDemand++
	}
	if req.done.Valid() {
		h.L2M.Coalesce(req.line, req.done)
		h.L2M.Stats.Coalesced--
	}
	// The L2 lookup that detected the miss precedes the downstream fetch.
	h.node.Sched.ScheduleAfter(h.l2HitPs, events.Callback{Target: h, Kind: evFetch, Arg: uint64(req.line)})
}

func (h *Hierarchy) fillL2(line Line) {
	if victim, dirty := h.L2.Fill(line, false); dirty {
		h.node.writeback(victim)
	}
	ws := h.L2M.Complete(line)
	for _, w := range ws {
		w.Fire()
	}
	h.L2M.Recycle(ws)
	h.drainL2Pending()
}

func (h *Hierarchy) fillL1(line Line, dirty bool) {
	if victim, wb := h.L1.Fill(line, dirty); wb {
		// Dirty L1 victims land in L2 (usually already resident).
		h.L2.Fill(victim, true)
	}
	ws := h.L1M.Complete(line)
	for _, w := range ws {
		w.Fire()
	}
	h.L1M.Recycle(ws)
	h.drainL1Pending()
}

func (h *Hierarchy) drainL1Pending() {
	now := h.node.Sched.Now()
	for h.pendL1Head < len(h.pendingL1) && !h.L1M.Full() {
		req := h.pendingL1[h.pendL1Head]
		h.pendingL1[h.pendL1Head] = pendingReq{} // drop the callback's target
		h.pendL1Head++
		h.Stats.L1FullStallPs += uint64(now - req.since)
		// The line may have been filled while this request waited.
		if h.L1.Access(req.line, req.kind == Store) {
			if req.done.Valid() {
				h.node.Sched.ScheduleAfter(h.l1HitPs, req.done)
			}
			continue
		}
		h.l1Miss(pendingReq{line: req.line, kind: req.kind, done: req.done, since: now})
	}
	if h.pendL1Head == len(h.pendingL1) {
		h.pendingL1 = h.pendingL1[:0]
		h.pendL1Head = 0
	}
}

func (h *Hierarchy) drainL2Pending() {
	now := h.node.Sched.Now()
	for h.pendL2Head < len(h.pendingL2) && !h.L2M.Full() {
		req := h.pendingL2[h.pendL2Head]
		h.pendingL2[h.pendL2Head] = pendingReq{}
		h.pendL2Head++
		if req.kind.isDemand() || req.kind == PrefetchL1 {
			h.Stats.L2FullStallPs += uint64(now - req.since)
		}
		if h.L2.Access(req.line, false) {
			if req.done.Valid() {
				h.node.Sched.ScheduleAfter(h.l2HitPs, req.done)
			}
			continue
		}
		h.l2Miss(pendingReq{line: req.line, kind: req.kind, done: req.done, since: now})
	}
	if h.pendL2Head == len(h.pendingL2) {
		h.pendingL2 = h.pendingL2[:0]
		h.pendL2Head = 0
	}
}
