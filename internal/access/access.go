// Package access classifies memory-access streams the way the paper's
// methodology needs routines classified (§III-D): is the routine dominated
// by sequential streams the hardware prefetcher will cover (→ the L2 MSHR
// file binds), or by random/irregular accesses it cannot (→ the L1 file
// binds)? It also estimates the quantities the recipe consumes: the number
// of concurrent streams (against the prefetcher's table), the touched
// footprint (against cache capacities), and a sampled reuse-distance
// profile (the signal loop tiling acts on).
//
// The classifier is stream-based and single-pass with bounded memory, so
// it can ride along any cpu.Generator — including traces of real
// applications — without materializing the access sequence.
package access

import "fmt"

// Kind is the coarse classification the recipe needs.
type Kind int

const (
	// Streaming: unit-stride (or near) sequences dominate; the hardware
	// prefetcher is effective and the L2 MSHR file binds.
	Streaming Kind = iota
	// Irregular: random or pointer-chasing accesses dominate; the
	// prefetcher is ineffective and the L1 MSHR file binds.
	Irregular
	// Mixed: both present with neither above the dominance threshold.
	// §III-D's guidance: the random component usually dominates *traffic*
	// (each irregular reference touches its own line), so Mixed defaults
	// to the L1 file unless streams carry the bytes.
	Mixed
)

func (k Kind) String() string {
	switch k {
	case Streaming:
		return "streaming"
	case Irregular:
		return "irregular"
	case Mixed:
		return "mixed"
	}
	return "unknown"
}

// Profile is the classification result.
type Profile struct {
	Kind Kind

	// SequentialFraction is the fraction of line-granular accesses that
	// continue an active unit-stride stream.
	SequentialFraction float64

	// Streams estimates the number of concurrent sequential streams —
	// the quantity to compare against the prefetcher's table size.
	Streams int

	// FootprintLines is the number of distinct cache lines touched
	// (exact up to the configured cap).
	FootprintLines int

	// Accesses is the number of line-granular accesses observed.
	Accesses int

	// ReuseCDF samples the reuse-distance distribution: ReuseCDF[i] is
	// the fraction of re-accesses whose reuse distance (in distinct
	// lines) was at most ReuseBuckets[i].
	ReuseCDF []float64
}

// ReuseBuckets are the reuse-distance thresholds (in distinct lines)
// reported in Profile.ReuseCDF: 512 lines ≈ a 32 KiB L1, 8K lines ≈ a
// 512 KiB L2, 64K lines ≈ a several-MiB LLC slice (64 B lines).
var ReuseBuckets = []int{512, 8192, 65536}

// Classifier consumes a line-address stream and produces a Profile.
// The zero value is not ready; use NewClassifier.
type Classifier struct {
	lineShift uint

	// Stream detection: recent stream heads, LRU-replaced.
	heads    []streamHead
	maxHeads int

	seq   int
	total int

	// Footprint and reuse tracking: last-access timestamps per line, with
	// a bounded map (sampling beyond the cap).
	lastSeen map[uint64]int
	capLines int

	// Reuse-distance approximation state.
	distinctTouches int
	reuseCounts     []int
	reuseTotal      int

	peakActiveStreams int
}

type streamHead struct {
	next    uint64
	lastUse int
	hits    int
}

// NewClassifier builds a classifier for the given cache-line size.
func NewClassifier(lineBytes int) (*Classifier, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("access: line size must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Classifier{
		lineShift:   shift,
		maxHeads:    64,
		lastSeen:    make(map[uint64]int, 1<<16),
		capLines:    1 << 20,
		reuseCounts: make([]int, len(ReuseBuckets)+1),
	}, nil
}

// Observe feeds one byte-addressed access.
func (c *Classifier) Observe(addr uint64) {
	line := addr >> c.lineShift
	c.total++

	// Stream detection: does this line continue any tracked stream?
	matched := false
	for i := range c.heads {
		if c.heads[i].next == line {
			c.heads[i].next = line + 1
			c.heads[i].lastUse = c.total
			c.heads[i].hits++
			if c.heads[i].hits >= 2 {
				c.seq++
			}
			matched = true
			break
		}
	}
	if !matched {
		c.trackNewHead(line)
	}
	if n := c.activeStreams(); n > c.peakActiveStreams {
		c.peakActiveStreams = n
	}

	// Footprint and reuse distance.
	if prev, ok := c.lastSeen[line]; ok {
		// Approximate stack distance: the distinct lines touched since
		// prev are at most the access delta and at most the footprint —
		// exact for cyclic sweeps and hot-line patterns, an upper bound
		// in between.
		dist := c.total - prev
		if f := len(c.lastSeen); dist > f {
			dist = f
		}
		c.recordReuse(dist)
		c.lastSeen[line] = c.total
	} else {
		c.distinctTouches++
		if len(c.lastSeen) < c.capLines {
			c.lastSeen[line] = c.total
		}
	}
}

func (c *Classifier) trackNewHead(line uint64) {
	h := streamHead{next: line + 1, lastUse: c.total}
	if len(c.heads) < c.maxHeads {
		c.heads = append(c.heads, h)
		return
	}
	oldest := 0
	for i := range c.heads {
		if c.heads[i].lastUse < c.heads[oldest].lastUse {
			oldest = i
		}
	}
	c.heads[oldest] = h
}

// activeStreams counts heads that have confirmed (≥2 sequential hits) and
// were used recently.
func (c *Classifier) activeStreams() int {
	n := 0
	for i := range c.heads {
		if c.heads[i].hits >= 2 && c.total-c.heads[i].lastUse < 4*c.maxHeads {
			n++
		}
	}
	return n
}

func (c *Classifier) recordReuse(dist int) {
	c.reuseTotal++
	for i, b := range ReuseBuckets {
		if dist <= b {
			c.reuseCounts[i]++
			return
		}
	}
	c.reuseCounts[len(ReuseBuckets)]++
}

// dominance is the sequential fraction above which a stream is Streaming
// and below one-minus-which it is Irregular.
const dominance = 0.7

// Profile summarizes what has been observed so far.
func (c *Classifier) Profile() Profile {
	p := Profile{
		Accesses:       c.total,
		FootprintLines: len(c.lastSeen),
		Streams:        c.peakActiveStreams,
	}
	if c.total > 0 {
		p.SequentialFraction = float64(c.seq) / float64(c.total)
	}
	switch {
	case p.SequentialFraction >= dominance:
		p.Kind = Streaming
	case p.SequentialFraction <= 1-dominance:
		p.Kind = Irregular
	default:
		p.Kind = Mixed
	}
	if c.reuseTotal > 0 {
		cum := 0
		p.ReuseCDF = make([]float64, len(ReuseBuckets))
		for i := range ReuseBuckets {
			cum += c.reuseCounts[i]
			p.ReuseCDF[i] = float64(cum) / float64(c.reuseTotal)
		}
	}
	return p
}

// RandomAccess translates the classification into the recipe's boolean
// (§III-D): Irregular and Mixed bind on the L1 MSHR file, because each
// irregular reference usually touches its own line and dominates traffic.
func (p Profile) RandomAccess() bool { return p.Kind != Streaming }

// TilingSignal reports whether the reuse profile suggests capturable reuse
// beyond the L1 but within LLC reach — the situation loop tiling improves.
func (p Profile) TilingSignal() bool {
	if len(p.ReuseCDF) < 2 {
		return false
	}
	// Reuse exists (beyond-L1 bucket populated) but a meaningful share of
	// it misses the L2-scale bucket.
	beyondL1 := 1 - p.ReuseCDF[0]
	return beyondL1 > 0.2 && p.ReuseCDF[1] < 0.9
}

// String renders the profile compactly.
func (p Profile) String() string {
	var cdf string
	for i, f := range p.ReuseCDF {
		cdf += fmt.Sprintf(" ≤%d:%.0f%%", ReuseBuckets[i], 100*f)
	}
	return fmt.Sprintf("%s (%.0f%% sequential, %d streams, %d lines touched;%s)",
		p.Kind, 100*p.SequentialFraction, p.Streams, p.FootprintLines, cdf)
}
