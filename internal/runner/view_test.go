package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/memsys"
	"littleslaw/internal/sim"
)

// countingRender renders a result to bytes that name the owner, counting
// calls, so a test sees both which answer came back and whether it was
// rendered or kept.
type countingRender struct{ calls atomic.Int64 }

func (c *countingRender) fn(owner string) func(*sim.Result) ([]byte, error) {
	return func(res *sim.Result) ([]byte, error) {
		c.calls.Add(1)
		return []byte(fmt.Sprintf("%s:%d", owner, res.Cores)), nil
	}
}

func (c *countingRender) run(t *testing.T, r *Runner, cfg sim.Config, owner string) string {
	t.Helper()
	body, err := r.RunRendered(context.Background(), cfg, owner, c.fn(owner))
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestRunRenderedKeepsOneViewPerOwner: the first run of a key renders, a
// revisit by the same owner returns the kept bytes, and a second owner gets
// its own rendering, once. Hits and misses count exactly as Run's do.
func TestRunRenderedKeepsOneViewPerOwner(t *testing.T) {
	var execs atomic.Int64
	cfg := countingConfig("test/view", &execs)
	r := New(8)
	var rc countingRender

	for i := 0; i < 3; i++ {
		if got := rc.run(t, r, cfg, "a"); got != "a:2" {
			t.Fatalf("owner a run %d = %q, want a:2", i, got)
		}
	}
	if got := rc.calls.Load(); got != 1 {
		t.Fatalf("owner a rendered %d times in 3 runs, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if got := rc.run(t, r, cfg, "b"); got != "b:2" {
			t.Fatalf("owner b run %d = %q, want its own answer b:2", i, got)
		}
	}
	if got := rc.calls.Load(); got != 2 {
		t.Fatalf("renders after owner b = %d, want 2", got)
	}
	if got := rc.run(t, r, cfg, "a"); got != "a:2" {
		t.Fatalf("owner a after b = %q, want a:2", got)
	}
	if got := rc.calls.Load(); got != 2 {
		t.Fatalf("owner a re-rendered after owner b: %d renders, want 2", got)
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits != 5 || execs.Load() != 1 {
		t.Fatalf("stats = %+v, execs %d; want 1 miss, 5 hits, 1 execution", st, execs.Load())
	}

	// Run and RunRendered share one entry: a plain Run is a hit.
	if _, err := r.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 6 {
		t.Fatalf("plain Run after RunRendered: hits = %d, want 6", st.Hits)
	}
}

// TestRunRenderedViewDiesWithEntry: TTL expiry, Forget and eviction drop the
// kept bytes with the result, so the next run re-renders.
func TestRunRenderedViewDiesWithEntry(t *testing.T) {
	var execs atomic.Int64
	cfg := countingConfig("test/view-ttl", &execs)
	r := New(8)
	clock := time.Unix(1_700_000_000, 0)
	r.now = func() time.Time { return clock }
	var rc countingRender

	rc.run(t, r, cfg, "a")
	rc.run(t, r, cfg, "a")
	if got := rc.calls.Load(); got != 1 {
		t.Fatalf("renders = %d, want 1", got)
	}

	r.SetTTL(time.Nanosecond)
	clock = clock.Add(time.Millisecond)
	rc.run(t, r, cfg, "a")
	if got, ex := rc.calls.Load(), execs.Load(); got != 2 || ex != 2 {
		t.Fatalf("after expiry: renders %d, execs %d; want 2, 2", got, ex)
	}
	r.SetTTL(0)

	r.Forget(cfg)
	rc.run(t, r, cfg, "a")
	if got, ex := rc.calls.Load(), execs.Load(); got != 3 || ex != 3 {
		t.Fatalf("after Forget: renders %d, execs %d; want 3, 3", got, ex)
	}

	small := New(1)
	rc.run(t, small, cfg, "a")
	rc.run(t, small, countingConfig("test/view-evictor", &execs), "a")
	rc.run(t, small, cfg, "a")
	if got := rc.calls.Load(); got != 6 {
		t.Fatalf("after eviction: renders %d, want 6", got)
	}
}

// TestRunRenderedUncachedRendersEveryTime: a bypassed config has no entry
// to keep bytes in, and a render error is returned, not kept.
func TestRunRenderedUncachedRendersEveryTime(t *testing.T) {
	var execs atomic.Int64
	r := New(8)
	var rc countingRender
	hooked := countingConfig("test/view-hooked", &execs)
	hooked.ConfigureHierarchy = func(h *memsys.Hierarchy) { h.NoCoalesce = true }
	rc.run(t, r, hooked, "a")
	rc.run(t, r, hooked, "a")
	if got := rc.calls.Load(); got != 2 {
		t.Fatalf("bypassed config rendered %d times in 2 runs, want 2", got)
	}

	cfg := countingConfig("test/view-err", &execs)
	boom := errors.New("boom")
	if _, err := r.RunRendered(context.Background(), cfg, "a", func(*sim.Result) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("render error = %v, want boom", err)
	}
	if got := rc.run(t, r, cfg, "a"); got != "a:2" {
		t.Fatalf("after a failed render = %q, want a fresh a:2", got)
	}
}

// TestRunRenderedOwnersBounded: past maxViews owners an entry keeps no more
// bytes, yet every owner still gets its own answer; racing first uses of
// one owner leave exactly one kept body behind.
func TestRunRenderedOwnersBounded(t *testing.T) {
	var execs atomic.Int64
	cfg := countingConfig("test/view-owners", &execs)
	r := New(8)
	var rc countingRender
	for round := 0; round < 2; round++ {
		for o := 0; o < maxViews+2; o++ {
			owner := fmt.Sprintf("o%d", o)
			if got := rc.run(t, r, cfg, owner); got != owner+":2" {
				t.Fatalf("owner %s = %q", owner, got)
			}
		}
	}
	if got, want := rc.calls.Load(), int64(maxViews+2*2); got != want {
		t.Fatalf("renders = %d, want %d (%d kept owners once, 2 unkept owners twice)", got, want, maxViews)
	}

	cfg2 := countingConfig("test/view-race", &execs)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := r.RunRendered(context.Background(), cfg2, "x", func(*sim.Result) ([]byte, error) {
				return []byte(fmt.Sprintf("x:%d", i)), nil
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	late := func(*sim.Result) ([]byte, error) { return []byte("late"), nil }
	first, _ := r.RunRendered(context.Background(), cfg2, "x", late)
	second, _ := r.RunRendered(context.Background(), cfg2, "x", late)
	if string(first) == "late" || string(first) != string(second) {
		t.Fatalf("kept bodies after the race = %q, %q; want one racer's body, twice", first, second)
	}
}
