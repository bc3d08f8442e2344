package memsys

import "math"

// CacheStats counts cache activity over a measurement window.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Fills      uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
}

// MissRatio returns misses / (hits+misses), or 0 with no accesses.
func (s CacheStats) MissRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement. It operates on line addresses; timing lives in Hierarchy.
//
// The whole cache is one flat array of words, sets × ways, plus a fill count
// per set: set i owns words [i·ways, i·ways+fill[i]), ordered MRU-first.
// A word is the line address shifted left one bit with the dirty flag in
// bit 0 — eight bytes a way, so a 16-way set is two host cache lines — and
// validity is the fill count, so emptying the cache clears the counts and
// touches no way. Line addresses therefore use at most 63 bits, which any
// line size of two bytes or more guarantees.
type Cache struct {
	words   []uint64
	fill    []uint16
	ways    int
	setMask uint64
	Stats   CacheStats
}

// NewCache builds a cache with the given set count and associativity.
// setCount must be a power of two.
func NewCache(setCount, ways int) *Cache {
	if setCount <= 0 || setCount&(setCount-1) != 0 {
		panic("memsys: cache set count must be a positive power of two")
	}
	if ways <= 0 || ways > math.MaxUint16 {
		panic("memsys: cache ways must be in 1..65535")
	}
	return &Cache{
		words:   make([]uint64, setCount*ways),
		fill:    make([]uint16, setCount),
		ways:    ways,
		setMask: uint64(setCount - 1),
	}
}

// ResetStats clears counters without touching cache contents.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// Reset empties the cache and clears counters, keeping its arrays so a
// pooled hierarchy or node can reuse them.
func (c *Cache) Reset() {
	clear(c.fill)
	c.Stats = CacheStats{}
}

// set returns the resident words of line's set, MRU-first, with capacity
// for the whole set, and the set's index.
func (c *Cache) set(line Line) ([]uint64, uint64) {
	si := uint64(line) & c.setMask
	base := int(si) * c.ways
	return c.words[base : base+int(c.fill[si]) : base+c.ways], si
}

// find returns the position of line in set, or -1.
func find(set []uint64, line Line) int {
	for i, w := range set {
		if w>>1 == uint64(line) {
			return i
		}
	}
	return -1
}

// touch moves set[i] to the MRU position, setting its dirty bit if dirty.
func touch(set []uint64, i int, dirty bool) {
	w := set[i]
	if dirty {
		w |= 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = w
}

// Probe reports whether line is present without updating LRU or stats.
func (c *Cache) Probe(line Line) bool {
	set, _ := c.set(line)
	return find(set, line) >= 0
}

// Access looks up line, updating LRU and hit/miss statistics. A write hit
// marks the line dirty. It reports whether the access hit.
func (c *Cache) Access(line Line, write bool) bool {
	set, _ := c.set(line)
	if i := find(set, line); i >= 0 {
		touch(set, i, write)
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// Fill inserts line (marking it dirty if dirty), evicting the LRU way if
// the set is full. It returns the victim line and whether the victim was
// dirty (requiring a writeback). Filling a line that is already present
// only updates its dirty bit.
func (c *Cache) Fill(line Line, dirty bool) (victim Line, writeback bool) {
	set, si := c.set(line)
	if i := find(set, line); i >= 0 {
		touch(set, i, dirty)
		return 0, false
	}
	c.Stats.Fills++
	word := uint64(line) << 1
	if dirty {
		word |= 1
	}
	if len(set) < cap(set) {
		c.fill[si]++
		set = set[:len(set)+1]
		copy(set[1:], set)
		set[0] = word
		return 0, false
	}
	// Evict LRU (last element).
	v := set[len(set)-1]
	copy(set[1:], set)
	set[0] = word
	c.Stats.Evictions++
	if v&1 != 0 {
		c.Stats.Writebacks++
	}
	return Line(v >> 1), v&1 != 0
}

// Invalidate removes line if present, returning whether it was dirty.
func (c *Cache) Invalidate(line Line) (present, dirty bool) {
	set, si := c.set(line)
	i := find(set, line)
	if i < 0 {
		return false, false
	}
	w := set[i]
	copy(set[i:], set[i+1:])
	c.fill[si]--
	return true, w&1 != 0
}

// Len returns the number of resident lines (for tests).
func (c *Cache) Len() int {
	n := 0
	for _, f := range c.fill {
		n += int(f)
	}
	return n
}
