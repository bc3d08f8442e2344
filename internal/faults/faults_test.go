package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func mustNew(t *testing.T, seed int64, rules ...Rule) *Injector {
	t.Helper()
	in, err := New(seed, rules...)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDisabledInjectorNeverFires(t *testing.T) {
	in := mustNew(t, 1, Rule{Site: "*", Kind: KindError, P: 1})
	in.SetEnabled(false)
	for i := 0; i < 100; i++ {
		if f := in.Eval("anything"); f.Kind != KindNone {
			t.Fatalf("disabled injector fired %v", f)
		}
	}
	if got := in.FiredTotal(); got != 0 {
		t.Fatalf("FiredTotal = %d after disabled evals", got)
	}
}

func TestEmptyInjectorDisabled(t *testing.T) {
	in := mustNew(t, 7)
	if in.Enabled() {
		t.Fatal("injector with no rules reports enabled")
	}
	if f := in.Eval("runner.run"); f.Kind != KindNone {
		t.Fatalf("empty injector fired %v", f)
	}
}

// TestDeterministicSchedule: the same seed and rules replay the same
// per-site fault schedule, and a different seed diverges.
func TestDeterministicSchedule(t *testing.T) {
	rules := []Rule{
		{Site: "handler.*", Kind: KindError, P: 0.3},
		{Site: "handler.*", Kind: KindLatency, P: 0.2, D: time.Millisecond},
	}
	schedule := func(seed int64) []Kind {
		in := mustNew(t, seed, rules...)
		out := make([]Kind, 200)
		for i := range out {
			out[i] = in.Eval("handler.analyze").Kind
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at eval %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 200-eval schedules")
	}
}

// TestSitesAreIndependentStreams: interleaving evaluations of another site
// does not perturb a site's schedule.
func TestSitesAreIndependentStreams(t *testing.T) {
	rules := []Rule{{Site: "*", Kind: KindError, P: 0.5}}
	solo := mustNew(t, 9, rules...)
	var want []Kind
	for i := 0; i < 100; i++ {
		want = append(want, solo.Eval("site.a").Kind)
	}
	mixed := mustNew(t, 9, rules...)
	var got []Kind
	for i := 0; i < 100; i++ {
		mixed.Eval("site.b") // noise on another stream
		got = append(got, mixed.Eval("site.a").Kind)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("site.a schedule perturbed by site.b at eval %d", i)
		}
	}
}

func TestGlobScoping(t *testing.T) {
	in := mustNew(t, 1,
		Rule{Site: "handler.*", Kind: KindError, P: 1},
		Rule{Site: "runner.run", Kind: KindPanic, P: 1},
	)
	if f := in.Eval("handler.analyze"); f.Kind != KindError {
		t.Fatalf("handler.analyze = %v, want error", f.Kind)
	}
	if f := in.Eval("runner.run"); f.Kind != KindPanic {
		t.Fatalf("runner.run = %v, want panic", f.Kind)
	}
	if f := in.Eval("stream.serve"); f.Kind != KindNone {
		t.Fatalf("unmatched site fired %v", f.Kind)
	}
}

func TestFiringRateTracksProbability(t *testing.T) {
	in := mustNew(t, 123, Rule{Site: "s", Kind: KindError, P: 0.3})
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		if in.Eval("s").Kind == KindError {
			fired++
		}
	}
	rate := float64(fired) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("fire rate %.3f, want 0.30 ± 0.02", rate)
	}
	counts := in.Counts()
	if len(counts) != 1 || counts[0].Site != "s" || counts[0].Evals != n ||
		counts[0].Fired["error"] != uint64(fired) {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestFaultHelpers(t *testing.T) {
	f := Fault{Kind: KindError, Site: "x"}
	if err := f.Err(); !IsFault(err) || !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error not recognized: %v", err)
	}
	if wrapped := fmt.Errorf("outer: %w", f.Err()); !IsFault(wrapped) {
		t.Fatal("IsFault misses wrapped injected errors")
	}
	if (Fault{}).Err() != nil {
		t.Fatal("zero Fault yields an error")
	}
	if IsFault(errors.New("real failure")) {
		t.Fatal("IsFault claims a real failure")
	}

	// Sleep honors context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Fault{Kind: KindLatency, D: time.Minute}.Sleep(ctx)
	if time.Since(start) > time.Second {
		t.Fatal("Sleep ignored cancelled context")
	}
}

func TestConfigureResetsSchedule(t *testing.T) {
	in := mustNew(t, 5, Rule{Site: "s", Kind: KindError, P: 0.5})
	var first []Kind
	for i := 0; i < 50; i++ {
		first = append(first, in.Eval("s").Kind)
	}
	if err := in.Configure(5, []Rule{{Site: "s", Kind: KindError, P: 0.5}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got := in.Eval("s").Kind; got != first[i] {
			t.Fatalf("reconfigured schedule diverged at %d", i)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed=42;handler.*=error:0.2;runner.run=latency:0.1:50ms;stream.serve=drip:0.05:20ms;handler.tune=panic:0.01"
	seed, rules, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 42 || len(rules) != 4 {
		t.Fatalf("seed %d rules %d", seed, len(rules))
	}
	if rules[1] != (Rule{Site: "runner.run", Kind: KindLatency, P: 0.1, D: 50 * time.Millisecond}) {
		t.Fatalf("rules[1] = %+v", rules[1])
	}
	seed2, rules2, err := ParseSpec(FormatSpec(seed, rules))
	if err != nil {
		t.Fatal(err)
	}
	if seed2 != seed || len(rules2) != len(rules) {
		t.Fatalf("round trip lost data: seed %d rules %d", seed2, len(rules2))
	}
	for i := range rules {
		if rules[i] != rules2[i] {
			t.Fatalf("round trip rules[%d]: %+v vs %+v", i, rules[i], rules2[i])
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"site=unknownkind:0.5",
		"site=error:1.5",
		"site=error:NaN",
		"site=latency:0.5", // latency without duration
		"site=drip:0.5",    // drip without duration
		"site=latency:0.5:bogus",
		"seed=notanumber",
		"[=error:0.5", // bad glob
	}
	for _, spec := range bad {
		if _, _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
	if seed, rules, err := ParseSpec("  "); err != nil || seed != 0 || rules != nil {
		t.Fatalf("empty spec: %d %v %v", seed, rules, err)
	}
}

// TestConcurrentEval: racing evaluations (the production shape — many
// handlers consulting one injector) are safe and every eval is counted.
func TestConcurrentEval(t *testing.T) {
	in := mustNew(t, 3, Rule{Site: "*", Kind: KindError, P: 0.5})
	var wg sync.WaitGroup
	const goroutines, per = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			siteName := fmt.Sprintf("site.%d", g%2)
			for i := 0; i < per; i++ {
				in.Eval(siteName)
			}
		}(g)
	}
	wg.Wait()
	var evals uint64
	for _, sc := range in.Counts() {
		evals += sc.Evals
	}
	if evals != goroutines*per {
		t.Fatalf("evals = %d, want %d", evals, goroutines*per)
	}
}

func TestConfigureSpec(t *testing.T) {
	in, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ConfigureSpec("seed=7;handler.*=error:0.5"); err != nil {
		t.Fatal(err)
	}
	if !in.Enabled() || in.Seed() != 7 || len(in.Rules()) != 1 {
		t.Fatalf("after a good spec: enabled %v, seed %d, rules %v", in.Enabled(), in.Seed(), in.Rules())
	}
	for _, bad := range []string{"seed=x", "handler.*=error:2"} {
		if err := in.ConfigureSpec(bad); err == nil {
			t.Errorf("ConfigureSpec(%q) accepted", bad)
		}
	}
	if !in.Enabled() || in.Seed() != 7 || len(in.Rules()) != 1 {
		t.Fatalf("a rejected spec changed the injector: enabled %v, seed %d, rules %v", in.Enabled(), in.Seed(), in.Rules())
	}
}
