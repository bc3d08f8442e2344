package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every entry point must no-op on a nil trace / traceless
// context — that is the contract letting untraced paths skip all cost.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	tr.Add("x", "", time.Millisecond, time.Millisecond)
	tr.Finish(200, time.Second)
	a := tr.Begin("x")
	a.SetQueue(time.Millisecond)
	a.End("done")
	if tr.ID() != "" || tr.Route() != "" || tr.Attributed() != 0 {
		t.Fatalf("nil trace leaked state: %q %q %v", tr.ID(), tr.Route(), tr.Attributed())
	}
	if v := tr.View(); v.ID != "" || len(v.Spans) != 0 {
		t.Fatalf("nil View = %+v", v)
	}
	if tr.Summary() != "" {
		t.Fatalf("nil Summary = %q", tr.Summary())
	}
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context carries a trace")
	}
	Add(ctx, "x", "", 0, 0) // must not panic
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext(nil) should return ctx unchanged")
	}
}

// TestExclusiveAccounting: a wrapper span's service time excludes what its
// children attributed, so nesting sums to wall time instead of double
// counting — the waterfall identity in miniature.
func TestExclusiveAccounting(t *testing.T) {
	tr := New("t1", "r")
	outer := tr.Begin("handler")
	// A child leaf attributing 40ms of measured work.
	tr.Add("sim", "", 10*time.Millisecond, 30*time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	outer.End("")

	v := tr.View()
	if len(v.Spans) != 2 {
		t.Fatalf("spans = %+v", v.Spans)
	}
	sim, handler := v.Spans[0], v.Spans[1]
	if sim.QueueMs != 10 || sim.ServiceMs != 30 {
		t.Fatalf("leaf span = %+v, want declared 10+30", sim)
	}
	// The wrapper saw ~5ms of wall time; the child's 40ms was attributed
	// concurrently (declared durations, not elapsed), so exclusive service
	// is clamped at zero rather than going negative.
	if handler.ServiceMs < 0 {
		t.Fatalf("exclusive service went negative: %+v", handler)
	}
	if handler.ServiceMs > 6 {
		t.Fatalf("wrapper kept child time: %.2fms service, want ~5ms wall minus 40ms child (clamped)", handler.ServiceMs)
	}
	wantAttr := 40*time.Millisecond + time.Duration(handler.QueueMs+handler.ServiceMs)*time.Millisecond
	if got := tr.Attributed(); got < 40*time.Millisecond || got > wantAttr+time.Millisecond {
		t.Fatalf("attributed = %v", got)
	}
}

// TestSetQueueShiftsStart: queue declared at End time covers wait that
// happened before Begin, so the span's start moves back to include it. The
// bounds come from clock readings around New and Begin, not from how long
// the sleep between them lasted.
func TestSetQueueShiftsStart(t *testing.T) {
	const queue = 3 * time.Millisecond
	beforeNew := time.Now()
	tr := New("t2", "r")
	afterNew := time.Now()
	// Begin must come later than the declared queue, or the shifted start
	// would clamp at zero and show nothing.
	time.Sleep(4 * time.Millisecond)
	beforeBegin := time.Now()
	a := tr.Begin("engine")
	afterBegin := time.Now()
	a.SetQueue(queue)
	a.End("job")
	sp := tr.View().Spans[0]
	if sp.QueueMs != 3 {
		t.Fatalf("queue = %v, want 3ms", sp.QueueMs)
	}
	// Begin's offset into the trace lies between these two readings; the
	// start is that offset less the queue. The slack covers the view's
	// float rounding.
	lo := float64(beforeBegin.Sub(afterNew)-queue) / float64(time.Millisecond)
	hi := float64(afterBegin.Sub(beforeNew)-queue) / float64(time.Millisecond)
	const slack = 1e-6
	if sp.StartMs < lo-slack || sp.StartMs > hi+slack {
		t.Fatalf("start = %.4fms, want in [%.4f, %.4f]: Begin's offset shifted back by the declared queue", sp.StartMs, lo, hi)
	}
}

// TestSpanCapAndDropped: spans past MaxSpans are counted, not stored, and
// still feed the attribution sum.
func TestSpanCapAndDropped(t *testing.T) {
	tr := New("t3", "r")
	for i := 0; i < MaxSpans+10; i++ {
		tr.Add("job", "", 0, time.Microsecond)
	}
	v := tr.View()
	if len(v.Spans) != MaxSpans {
		t.Fatalf("spans = %d, want capped at %d", len(v.Spans), MaxSpans)
	}
	if v.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", v.DroppedSpans)
	}
	if want := time.Duration(MaxSpans+10) * time.Microsecond; tr.Attributed() != want {
		t.Fatalf("attributed = %v, want %v (dropped spans still count)", tr.Attributed(), want)
	}
}

// TestSummaryFormat: the one-line header renders every span and ends with
// the total.
func TestSummaryFormat(t *testing.T) {
	tr := New("t4", "r")
	tr.Add("limit", "admitted", 2*time.Millisecond, 0)
	tr.Add("sim", "", 0, 40*time.Millisecond)
	tr.Finish(200, 45*time.Millisecond)
	sum := tr.Summary()
	for _, want := range []string{"limit=admitted 2.0+0.0", "sim 0.0+40.0", "total 45.0ms"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
}

// TestSinkRingEviction: the ring retains the newest capacity traces and
// forgets the oldest id.
func TestSinkRingEviction(t *testing.T) {
	s := NewSink(2)
	var ids []string
	for i := 0; i < 3; i++ {
		tr := s.Start("r")
		tr.Finish(200, time.Millisecond)
		s.Done(tr)
		ids = append(ids, tr.ID())
	}
	if s.Len() != 2 {
		t.Fatalf("ring len = %d, want 2", s.Len())
	}
	if _, ok := s.Get(ids[0]); ok {
		t.Fatalf("oldest trace %s still retained", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("trace %s evicted early", id)
		}
	}
}

// TestSinkIDsUnique: ids must be unique within a sink — they key the ring.
func TestSinkIDsUnique(t *testing.T) {
	s := NewSink(0)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := s.Start("r").ID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

// TestStageRatesIdentity: per stage, n_avg must equal λ·W — the sink's
// aggregates are Little's Law by construction, and OnFinish fires per Done.
func TestStageRatesIdentity(t *testing.T) {
	s := NewSink(8)
	finished := 0
	s.OnFinish = func(*Trace) { finished++ }
	for i := 0; i < 5; i++ {
		tr := s.Start("r")
		tr.Add("sim", "", 0, 10*time.Millisecond)
		tr.Add("limit", "admitted", time.Millisecond, 0)
		tr.Finish(200, 12*time.Millisecond)
		s.Done(tr)
	}
	if finished != 5 {
		t.Fatalf("OnFinish fired %d times, want 5", finished)
	}
	lam, w, navg := s.StageRates()
	for _, stage := range []string{"sim", "limit"} {
		if lam[stage] <= 0 || w[stage] <= 0 {
			t.Fatalf("stage %s unobserved: λ=%v W=%v", stage, lam[stage], w[stage])
		}
		if got, want := navg[stage], lam[stage]*w[stage]; got < want*0.999 || got > want*1.001 {
			t.Fatalf("stage %s: n_avg = %v, λ·W = %v", stage, got, want)
		}
	}
	if w["sim"] < 0.009 || w["sim"] > 0.011 {
		t.Fatalf("W(sim) = %v, want ~10ms", w["sim"])
	}
}

// TestConcurrentRecording hammers one trace and its sink from many
// goroutines — the race detector's target in `make race`.
func TestConcurrentRecording(t *testing.T) {
	s := NewSink(16)
	tr := s.Start("r")
	ctx := NewContext(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := Begin(ctx, fmt.Sprintf("stage%d", g%4))
				Add(ctx, "leaf", "", 0, time.Microsecond)
				a.End("done")
				_ = tr.View()
				_ = tr.Summary()
				_, _, _ = s.StageRates()
			}
		}(g)
	}
	wg.Wait()
	tr.Finish(200, time.Millisecond)
	s.Done(tr)
	if v := tr.View(); len(v.Spans)+v.DroppedSpans != 800 {
		t.Fatalf("spans+dropped = %d, want 800", len(v.Spans)+v.DroppedSpans)
	}
}
