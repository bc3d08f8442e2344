package access

import (
	"math/rand"
	"testing"
	"testing/quick"

	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/workloads"
)

func classify(t *testing.T, feed func(c *Classifier)) Profile {
	t.Helper()
	c, err := NewClassifier(64)
	if err != nil {
		t.Fatal(err)
	}
	feed(c)
	return c.Profile()
}

func TestNewClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(0); err == nil {
		t.Fatal("zero line size accepted")
	}
	if _, err := NewClassifier(96); err == nil {
		t.Fatal("non-power-of-two line size accepted")
	}
}

func TestPureStream(t *testing.T) {
	p := classify(t, func(c *Classifier) {
		for i := 0; i < 5000; i++ {
			c.Observe(uint64(i) * 64)
		}
	})
	if p.Kind != Streaming {
		t.Fatalf("pure stream classified %v: %s", p.Kind, p)
	}
	if p.SequentialFraction < 0.95 {
		t.Fatalf("sequential fraction = %.2f", p.SequentialFraction)
	}
	if p.RandomAccess() {
		t.Fatal("stream reported as random access")
	}
	if p.FootprintLines != 5000 {
		t.Fatalf("footprint = %d, want 5000", p.FootprintLines)
	}
}

func TestPureRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := classify(t, func(c *Classifier) {
		for i := 0; i < 5000; i++ {
			c.Observe(rng.Uint64() & (1<<34 - 1))
		}
	})
	if p.Kind != Irregular {
		t.Fatalf("random traffic classified %v: %s", p.Kind, p)
	}
	if !p.RandomAccess() {
		t.Fatal("random traffic not reported as random access")
	}
}

func TestInterleavedStreamsCounted(t *testing.T) {
	p := classify(t, func(c *Classifier) {
		for i := 0; i < 3000; i++ {
			for s := 0; s < 6; s++ {
				c.Observe(uint64(s)<<34 + uint64(i)*64)
			}
		}
	})
	if p.Kind != Streaming {
		t.Fatalf("six interleaved streams classified %v", p.Kind)
	}
	if p.Streams < 5 || p.Streams > 8 {
		t.Fatalf("stream estimate = %d, want ≈6", p.Streams)
	}
}

func TestMixedTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := classify(t, func(c *Classifier) {
		for i := 0; i < 4000; i++ {
			if i%2 == 0 {
				c.Observe(uint64(i/2) * 64) // stream half
			} else {
				c.Observe(1<<40 + rng.Uint64()&(1<<32-1)) // random half
			}
		}
	})
	if p.Kind != Mixed {
		t.Fatalf("half-and-half classified %v (%s)", p.Kind, p)
	}
	// §III-D: mixed routines bind on the L1 file.
	if !p.RandomAccess() {
		t.Fatal("mixed traffic must classify as random-access for the recipe")
	}
}

func TestReuseCDF(t *testing.T) {
	// Touch 256 lines cyclically: every re-access has stack distance ~255,
	// inside the first bucket (512).
	p := classify(t, func(c *Classifier) {
		for i := 0; i < 20000; i++ {
			c.Observe(uint64(i%256) * 64)
		}
	})
	if len(p.ReuseCDF) == 0 || p.ReuseCDF[0] < 0.95 {
		t.Fatalf("short-reuse traffic CDF = %v, want ≈1 in first bucket", p.ReuseCDF)
	}
	// Touch 20000 lines cyclically: reuse distance ~20000 — beyond the
	// 8192 bucket, so the L2-scale CDF stays low: tiling territory.
	p = classify(t, func(c *Classifier) {
		for rep := 0; rep < 4; rep++ {
			for i := 0; i < 20000; i++ {
				c.Observe(uint64(i) * 64)
			}
		}
	})
	if len(p.ReuseCDF) < 2 || p.ReuseCDF[1] > 0.5 {
		t.Fatalf("long-reuse traffic CDF = %v, want low at L2 scale", p.ReuseCDF)
	}
	if !p.TilingSignal() {
		t.Fatalf("long-distance reuse must raise the tiling signal: %s", p)
	}
}

// TestWorkloadClassificationMatchesTableII runs the classifier over the
// actual workload generators and checks the per-application verdicts:
// random-dominated apps come out Irregular, stream-dominated ones
// Streaming, and SNAP — whose short angular bursts are exactly the
// boundary case §IV-F discusses — lands between the two.
func TestWorkloadClassificationMatchesTableII(t *testing.T) {
	p := platform.SKL()
	want := map[string][]Kind{
		"ISx":       {Irregular, Mixed}, // the key-array stream rides along
		"HPCG":      {Streaming},
		"PENNANT":   {Irregular},
		"CoMD":      {Irregular},
		"MiniGhost": {Streaming},
		"SNAP":      {Mixed, Streaming}, // short streams: the boundary case
	}
	for _, w := range workloads.All() {
		c, err := NewClassifier(p.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		gen := w.Config(p, 1, 0.2).NewGen(0, 0)
		for i := 0; i < 20000; i++ {
			op, ok := gen.Next()
			if !ok {
				break
			}
			if op.Kind == memsys.Load || op.Kind == memsys.Store {
				c.Observe(op.Addr)
			}
		}
		prof := c.Profile()
		ok := false
		for _, k := range want[w.Name()] {
			if prof.Kind == k {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: classified %v, want one of %v (%s)", w.Name(), prof.Kind, want[w.Name()], prof)
		}
	}
}

// Property: SequentialFraction stays within [0,1]; footprint never exceeds
// accesses; the CDF is monotone.
func TestClassifierInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewClassifier(64)
		if err != nil {
			return false
		}
		total := int(n)%2000 + 10
		for i := 0; i < total; i++ {
			switch rng.Intn(3) {
			case 0:
				c.Observe(uint64(i) * 64)
			case 1:
				c.Observe(rng.Uint64() & (1<<30 - 1))
			default:
				c.Observe(uint64(rng.Intn(64)) * 64)
			}
		}
		p := c.Profile()
		if p.SequentialFraction < 0 || p.SequentialFraction > 1 {
			return false
		}
		if p.FootprintLines > p.Accesses {
			return false
		}
		prev := 0.0
		for _, v := range p.ReuseCDF {
			if v < prev || v > 1+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
