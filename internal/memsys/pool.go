package memsys

import (
	"sync"

	"littleslaw/internal/events"
	"littleslaw/internal/platform"
)

// freeList is a bounded stack of idle objects per geometry. It is a mutex
// and a slice rather than a sync.Pool because the collector empties a
// sync.Pool every second cycle, and a kernel that allocates nothing else
// would still rebuild its caches whenever the serving tier's garbage
// triggered one. What it holds, it holds until reused: the bound passed to
// put is what keeps that finite.
type freeList[G comparable, T any] struct {
	mu   sync.Mutex
	idle map[G][]*T
}

func (f *freeList[G, T]) get(g G) *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.idle[g]
	if len(s) == 0 {
		return nil
	}
	v := s[len(s)-1]
	s[len(s)-1] = nil
	f.idle[g] = s[:len(s)-1]
	return v
}

// put keeps v for reuse unless bound objects of its geometry are already
// idle, in which case v is left to the collector.
func (f *freeList[G, T]) put(g G, v *T, bound int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.idle[g]) >= bound {
		return
	}
	if f.idle == nil {
		f.idle = make(map[G][]*T)
	}
	f.idle[g] = append(f.idle[g], v)
}

// pooledRuns is how many concurrent runs of one geometry the pools keep
// warm: a geometry retains at most pooledRuns nodes and pooledRuns ×
// Platform.Cores hierarchies. Runs beyond that construct what they need and
// drop it afterwards.
const pooledRuns = 2

// hierGeom is the part of a platform that fixes a Hierarchy's allocated
// shape: cache geometry, MSHR capacities and the prefetcher table bound.
// Two platforms with the same geometry can exchange pooled hierarchies
// even if their timing (frequencies, hit latencies) differs, because
// attach recomputes timing from the new node.
type hierGeom struct {
	l1Sets, l1Ways, l1MSHRs int
	l2Sets, l2Ways, l2MSHRs int
	lineBytes               int
	pf                      platform.PrefetcherConfig
}

func geomOf(p *platform.Platform) hierGeom {
	return hierGeom{
		l1Sets: p.L1.Sets(p.LineBytes), l1Ways: p.L1.Ways, l1MSHRs: p.L1.MSHRs,
		l2Sets: p.L2.Sets(p.LineBytes), l2Ways: p.L2.Ways, l2MSHRs: p.L2.MSHRs,
		lineBytes: p.LineBytes,
		pf:        p.Prefetcher,
	}
}

// nodeGeom is the part of a platform that fixes a Node's allocated shape:
// the L3's sets and ways, the channel and bank counts of the memory device
// (both tiers, with a memory-side cache) and the size of the tag array.
type nodeGeom struct {
	l3Sets, l3Ways       int
	chans, banks         int
	fastChans, fastBanks int
	mcSets               int
}

func nodeGeomOf(p *platform.Platform) nodeGeom {
	g := nodeGeom{chans: p.Memory.Channels, banks: p.Memory.BanksPerChannel}
	if p.L3 != nil {
		g.l3Sets, g.l3Ways = p.L3.Sets(p.LineBytes), p.L3.Ways
	}
	if mc := p.MemCache; mc != nil {
		g.fastChans, g.fastBanks, g.mcSets = mc.Fast.Channels, mc.Fast.BanksPerChannel, mcSets(p)
	}
	return g
}

var (
	hierPool freeList[hierGeom, Hierarchy]
	nodePool freeList[nodeGeom, Node]
)

// AcquireNode returns a node for platform p with a scheduler of its own at
// time zero, reusing a pooled node of matching geometry when one is idle
// (its arrays stay warm; its state was fully reset on release, so results
// are bit-identical to a fresh node's). Release with ReleaseNode when the
// run ends, completed or not.
func AcquireNode(p *platform.Platform) *Node {
	if n := nodePool.get(nodeGeomOf(p)); n != nil {
		n.attach(p)
		return n
	}
	return NewNode(&events.Scheduler{}, p)
}

// ReleaseNode resets n and returns it to the pool for its geometry. The
// caller must not use n, its scheduler, or any hierarchy still attached to
// it afterwards.
func ReleaseNode(n *Node) {
	g := nodeGeomOf(n.Plat)
	n.Reset()
	nodePool.put(g, n, pooledRuns)
}

// AcquireHierarchy returns a hierarchy attached to node, reusing a pooled
// one of matching geometry when one is idle, on the same terms as
// AcquireNode. Release with ReleaseHierarchy when the run ends — or don't,
// if the hierarchy's internal state may have been perturbed beyond Reset's
// reach.
func AcquireHierarchy(node *Node) *Hierarchy {
	if h := hierPool.get(geomOf(node.Plat)); h != nil {
		h.attach(node)
		return h
	}
	return NewHierarchy(node)
}

// ReleaseHierarchy resets h and returns it to the pool for its geometry.
// The caller must not use h afterwards.
func ReleaseHierarchy(h *Hierarchy) {
	p := h.node.Plat
	h.Reset()
	hierPool.put(geomOf(p), h, pooledRuns*p.Cores)
}
