// The consistent-hash ring: affinity half of the routing algebra. Each
// backend contributes VNodes points on a 64-bit circle; a key is owned by
// the first point clockwise from its hash. Balance comes from vnode count
// (the ring_test property pins max/min ≤ 2 across 1k fingerprints) and
// stability from the construction: when a backend leaves, exactly the keys
// it owned move to their clockwise successors — ~1/N of the keyspace —
// while every other assignment is untouched, so a node failure invalidates
// one backend's worth of cache affinity, not the fleet's.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Ring is an immutable consistent-hash ring over backend names. Build with
// NewRing; lookups are safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	names  int
}

type ringPoint struct {
	hash uint64
	name string
}

// DefaultVNodes is the per-backend virtual-node count: enough points that
// a three-node ring balances well within 2× over realistic key counts,
// cheap enough that construction stays trivial.
const DefaultVNodes = 160

// NewRing builds a ring with vnodes points per name (<= 0 = DefaultVNodes).
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{names: len(names), points: make([]ringPoint, 0, len(names)*vnodes)}
	for _, n := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", n, i)), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].name < r.points[j].name
	})
	return r
}

// Owner returns the backend owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	name, _ := r.OwnerWhere(key, nil)
	return name
}

// OwnerWhere returns the first backend clockwise from key's hash that
// satisfies eligible (nil = all). Walking clockwise past ineligible owners
// is the failover rule itself: a dead backend's keys land on exactly the
// successors that would own them if it left the ring, so breaker-driven
// rerouting and membership-change rehashing agree.
func (r *Ring) OwnerWhere(key string, eligible func(name string) bool) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	// The names already turned down, on the stack for any fleet up to 8.
	var buf [8]string
	rejected := buf[:0]
	for off := 0; off < len(r.points); off++ {
		p := r.points[(start+off)%len(r.points)]
		if slices.Contains(rejected, p.name) {
			continue
		}
		if eligible == nil || eligible(p.name) {
			return p.name, true
		}
		rejected = append(rejected, p.name)
		if len(rejected) == r.names {
			return "", false
		}
	}
	return "", false
}

// hashKey is FNV-64a with a splitmix64 finisher. FNV alone distributes
// poorly over inputs differing only in a short suffix (the "#<i>" vnode
// counter), which skews vnode placement; the finisher's avalanche spreads
// those deltas over all 64 bits.
func hashKey(s string) uint64 {
	// FNV-64a over the string in place: no []byte copy of a key that can
	// run to hundreds of bytes.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime64
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
