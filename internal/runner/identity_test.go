package runner

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"littleslaw/internal/platform"
)

// fmtKey is the format Key.String replaced; the cache keys a routing tier
// hashes must not change by a byte.
func fmtKey(k Key) string {
	return fmt.Sprintf("%s|%s|c%d|t%d|w%d|g%g|ss%g|se%g",
		k.Plat, k.Fingerprint, k.Cores, k.Threads, k.Window,
		k.GapScale, k.SMTShare, k.SMTExponent)
}

// fmtPlatform is the format PlatformFingerprint renders, spelled out
// independently of the product code.
func fmtPlatform(p *platform.Platform) string {
	flat := *p
	flat.L3, flat.MemCache = nil, nil
	s := fmt.Sprintf("%+v", flat)
	if p.L3 != nil {
		s += fmt.Sprintf("|L3=%+v", *p.L3)
	}
	if p.MemCache != nil {
		s += fmt.Sprintf("|MC=%+v", *p.MemCache)
	}
	return s
}

func TestKeyStringMatchesFormat(t *testing.T) {
	edges := []float64{0, 1, 1e21, 1.25e-7, 0.1 + 0.2, math.Inf(1), math.Inf(-1), -2.5, 123456789.125, 1e-300}
	for i, f := range edges {
		g := edges[(i+1)%len(edges)]
		k := Key{
			Plat: "P", Fingerprint: "workloads/ISx|{}|scale=0.1",
			Cores: i, Threads: -i, Window: 1 << i,
			GapScale: f, SMTShare: -f, SMTExponent: f * g,
		}
		if got, want := k.String(), fmtKey(k); got != want {
			t.Errorf("Key.String() = %q, want %q", got, want)
		}
	}
	if got, want := (Key{}).String(), fmtKey(Key{}); got != want {
		t.Errorf("zero Key.String() = %q, want %q", got, want)
	}
}

func TestPlatformFingerprintMatchesFormat(t *testing.T) {
	canon := map[string]bool{}
	for _, p := range platform.All() {
		got, want := PlatformFingerprint(p), fmtPlatform(p)
		if got != want {
			t.Errorf("%s: fingerprint = %q, want %q", p.Name, got, want)
		}
		canon[got] = true
	}
	if len(canon) != 3 {
		t.Fatalf("%d distinct canonical fingerprints, want 3", len(canon))
	}

	// Mutated copies keep their name but not their contents: each must be
	// rendered in full and never handed a canonical string.
	mutants := map[string]*platform.Platform{}
	for _, p := range platform.All() {
		m := *p
		m.L1.MSHRs++
		mutants[p.Name+" L1.MSHRs+1"] = &m

		m2 := *p
		if m2.L3 == nil {
			m2.L3 = &platform.CacheConfig{SizeBytes: 8 << 20, Ways: 16, MSHRs: 32, HitCycles: 40}
		} else {
			m2.L3 = nil
		}
		mutants[p.Name+" L3 toggled"] = &m2

		m3 := *p
		m3.MemCache = &platform.MemCacheConfig{SizeBytes: 1 << 20, Fast: p.Memory}
		mutants[p.Name+" MemCache set"] = &m3

		if p.L3 != nil {
			l3 := *p.L3
			l3.Ways++
			m4 := *p
			m4.L3 = &l3
			mutants[p.Name+" L3.Ways+1"] = &m4
		}

		m5 := *p
		m5.FreqHz = math.NaN()
		mutants[p.Name+" FreqHz NaN"] = &m5
	}
	for name, m := range mutants {
		got := PlatformFingerprint(m)
		if want := fmtPlatform(m); got != want {
			t.Errorf("%s: fingerprint = %q, want %q", name, got, want)
		}
		if canon[got] {
			t.Errorf("%s: mutated copy got a canonical fingerprint", name)
		}
	}

	// Equal contents behind a distinct L3 pointer share the canonical string.
	q := platform.SKL()
	l3 := *q.L3
	q.L3 = &l3
	if got := PlatformFingerprint(q); got != fmtPlatform(platform.SKL()) {
		t.Errorf("SKL copy with its own L3 block: fingerprint = %q, want the canonical one", got)
	}
}

// TestIdentityFieldCounts fails when a field is added to a type the cache
// key is rendered from. Update the renderer (Key.String, the canonical
// platform table's comparison) and its format test, then the count here, so
// no field can silently drop out of a cache key.
func TestIdentityFieldCounts(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(Key{}), 8},
		{reflect.TypeOf(platform.Platform{}), 19},
		{reflect.TypeOf(platform.CacheConfig{}), 4},
		{reflect.TypeOf(platform.PrefetcherConfig{}), 3},
		{reflect.TypeOf(platform.MemoryConfig{}), 9},
		{reflect.TypeOf(platform.MemCacheConfig{}), 2},
	} {
		if got := c.typ.NumField(); got != c.want {
			t.Errorf("%s has %d fields, the key renderers know %d", c.typ, got, c.want)
		}
	}
}
