package experiments

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
)

// TestRunIsTheRunnerLookup is the property the memo layers above the runner
// were deleted on: for every configuration Tables IV and VII need on SKL,
// the experiments lookup and the bare runner lookup return the same
// *sim.Result, and the kernel runs once per distinct canonical key however
// often and in whatever order the two are called.
func TestRunIsTheRunnerLookup(t *testing.T) {
	const scale = 0.03
	sims := runner.New(0)
	r := NewRunner(Options{Scale: scale, Platforms: []string{"SKL"}, ProfileFor: paperProfiles, SimRunner: sims})
	plats, keys, err := r.tableWork([]string{"IV", "VII"})
	if err != nil {
		t.Fatal(err)
	}
	p := plats[0]

	type call struct {
		key     runKey
		layered bool
	}
	var calls []call
	for _, k := range keys {
		calls = append(calls, call{k, true}, call{k, false}, call{k, true}, call{k, false})
	}
	rand.New(rand.NewSource(24)).Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })

	ctx := context.Background()
	distinct := map[runner.Key]bool{}
	seen := map[runKey]*sim.Result{}
	for _, c := range calls {
		w, _ := workloads.ByName(c.key.workload)
		cfg := w.WithVariant(c.key.variant).Config(p, c.key.threads, scale)
		canon, cacheable, err := runner.KeyOf(cfg)
		if err != nil || !cacheable {
			t.Fatalf("%+v: KeyOf = (cacheable=%v, %v)", c.key, cacheable, err)
		}
		distinct[canon] = true
		var res *sim.Result
		if c.layered {
			res, err = r.run(ctx, w, p, c.key.variant, c.key.threads)
		} else {
			res, err = sims.Run(ctx, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[c.key]; ok && prev != res {
			t.Fatalf("%+v (layered=%v): a second *sim.Result for one configuration", c.key, c.layered)
		}
		seen[c.key] = res
	}
	if got := sims.Stats().Misses; got != uint64(len(distinct)) {
		t.Fatalf("kernel ran %d times for %d distinct canonical keys over %d lookups", got, len(distinct), len(calls))
	}
}

// TestTableSurvivesRunnerTTL: with every cached result expired the instant
// it lands, one table still runs each of its configurations exactly once —
// assembly must be handed the results the dispatch computed, not look them
// up again (llserved -runner-ttl sets the TTL on the runner tables use).
func TestTableSurvivesRunnerTTL(t *testing.T) {
	sims := runner.New(0)
	sims.SetTTL(time.Nanosecond)
	r := NewRunner(Options{Scale: 0.03, Platforms: []string{"SKL"}, ProfileFor: paperProfiles, SimRunner: sims})
	tab, err := r.Table("IV")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	stats := sims.Stats()
	if got := stats.Misses; got != 3 {
		t.Errorf("kernel ran %d times, want 3 (base/1t, vect/1t, vect/2t)", got)
	}
	if got := stats.Expirations; got != 0 {
		t.Errorf("%d results expired and re-ran between dispatch and assembly", got)
	}
}
