package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"littleslaw/internal/cpu"
	"littleslaw/internal/platform"
)

// TestPooledRunMatchesFreshAfterAbandonedRun: Reset's contract for
// node-level state. Each platform gets a geometry nothing else in this
// test binary uses, so its first run builds everything fresh. A second run
// is then cancelled mid-flight and abandoned — requests queued at banks,
// MSHR entries and events in flight, the L3 or the memory-side tags half
// warm — and its node and hierarchies go back to the pools. The third run
// draws them and must report exactly what the fresh one did: on SKL (L3),
// on KNL in cache mode (two DRAM tiers and a tag array) and on A64FX.
func TestPooledRunMatchesFreshAfterAbandonedRun(t *testing.T) {
	skl := platform.SKL()
	skl.L2.MSHRs, skl.L3 = 19, &platform.CacheConfig{SizeBytes: 4 << 20, Ways: 16, MSHRs: 48, HitCycles: 60}
	knl := platform.KNLCacheMode()
	knl.L2.MSHRs, knl.MemCache = 29, &platform.MemCacheConfig{SizeBytes: 16 << 20, Fast: knl.MemCache.Fast}
	a64 := platform.A64FX()
	a64.L2.MSHRs = 23

	for _, p := range []*platform.Platform{skl, knl, a64} {
		cfg := func(gen func(core, thread int) cpu.Generator) Config {
			return Config{Plat: p, Cores: 4, ThreadsPerCore: min(2, p.SMTWays), NewGen: gen}
		}
		// Random loads (MSHR and bank pressure) beside streams (prefetcher
		// training, L2 traffic); n is each thread's operation count.
		mix := func(n int) func(core, thread int) cpu.Generator {
			return func(core, thread int) cpu.Generator {
				if (core+thread)%2 == 0 {
					return randFactory(41, n, 2)(core, thread)
				}
				return &streamGen{addr: uint64(core+1) << 32, step: 8, n: 4 * n, gap: 1}
			}
		}
		fresh, err := Run(cfg(mix(3000)))
		if err != nil {
			t.Fatalf("%s: fresh run: %v", p.Name, err)
		}

		// The same streams over the same addresses, endless, cancelled after
		// 20000 operations: every structure is left warm and mid-flight.
		ctx, cancel := context.WithCancel(context.Background())
		issued := 0
		_, err = RunContext(ctx, cfg(func(core, thread int) cpu.Generator {
			inner := mix(1<<30)(core, thread)
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				if issued++; issued == 20000 {
					cancel()
				}
				return inner.Next()
			})
		}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: abandoned run: err = %v, want context.Canceled", p.Name, err)
		}

		pooled, err := Run(cfg(mix(3000)))
		if err != nil {
			t.Fatalf("%s: pooled run: %v", p.Name, err)
		}
		if !reflect.DeepEqual(fresh, pooled) {
			t.Errorf("%s: run on a node and hierarchies reset after an abandoned run diverged from the fresh run:\n fresh:  %+v\n pooled: %+v",
				p.Name, fresh, pooled)
		}
	}
}
