package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"littleslaw/internal/queueing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	var g Gauge // gauges register as GaugeVec children; the zero value counts
	c.Inc()
	c.Add(4)
	g.Inc()
	g.Inc()
	g.Dec()
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.5 + 0.5 + 5 + 50; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`h_seconds_bucket{le="0.1"} 1`,
		`h_seconds_bucket{le="1"} 3`,
		`h_seconds_bucket{le="10"} 4`,
		`h_seconds_bucket{le="+Inf"} 5`,
		`h_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "handler", "code")
	v.With("analyze", "200").Inc()
	v.With("analyze", "200").Inc()
	v.With("analyze", "400").Inc()
	if got := v.With("analyze", "200").Value(); got != 2 {
		t.Fatalf("analyze/200 = %d, want 2", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `req_total{handler="analyze",code="200"} 2`) {
		t.Errorf("missing labeled counter:\n%s", out)
	}
	if !strings.Contains(out, `req_total{handler="analyze",code="400"} 1`) {
		t.Errorf("missing labeled counter:\n%s", out)
	}
}

func TestHistogramVecPromOutput(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("lat_seconds", "latency", []float64{1}, "handler")
	v.With("a").Observe(0.5)
	v.With("a").Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{handler="a",le="1"} 1`,
		`lat_seconds_bucket{handler="a",le="+Inf"} 2`,
		`lat_seconds_count{handler="a"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestLittleConcurrency pins the paper's law applied to the service
// itself: with 10 completed requests of 0.2 s each over a 4 s window,
// λ = 2.5/s, W = 0.2 s, so L = λ·W = 0.5 — read off the measured
// occupancy rather than derived from a latency sum. The undecayed mean is
// the identity exactly; the windowed n_avg of a process this much younger
// than its window agrees with it to a few percent.
func TestLittleConcurrency(t *testing.T) {
	clock := time.Unix(0, 0)
	o := NewOccupancy()
	o.est = queueing.NewEstimator(0, clock)
	o.now = func() time.Time { return clock }
	for i := 0; i < 10; i++ {
		clock = time.Unix(0, 0).Add(time.Duration(i) * 400 * time.Millisecond)
		o.Arrive()
		clock = clock.Add(200 * time.Millisecond)
		o.Complete()
	}
	clock = time.Unix(4, 0)
	if got := o.Mean(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Mean = %g, want λ·W = 0.5", got)
	}
	if got := o.NAvg(); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("NAvg = %g, want ≈ 0.5 on a window this young", got)
	}
	if got := o.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after every completion, want 0", got)
	}
}

// TestOccupancyConcurrent hammers one Occupancy from many goroutines — the
// race detector's target — and checks the books balance: nothing left in
// flight, and a mean that never passed the number of goroutines.
func TestOccupancyConcurrent(t *testing.T) {
	const workers = 8
	o := NewOccupancy()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.Arrive()
				if n := o.NAvg(); n > workers {
					t.Errorf("NAvg = %g with %d goroutines", n, workers)
				}
				o.Complete()
			}
		}()
	}
	wg.Wait()
	if got := o.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after every completion, want 0", got)
	}
	if got := o.Mean(); got < 0 || got > workers {
		t.Fatalf("Mean = %g outside [0, %d]", got, workers)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x", "second")
}

func TestDerived(t *testing.T) {
	r := NewRegistry()
	r.Derived("d", "derived", func() float64 { return 1.5 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "d 1.5") {
		t.Errorf("missing derived value:\n%s", sb.String())
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("subs", "per-stream subscribers", "stream")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Inc()
	v.With("b").Dec()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`subs{stream="a"} 2`, `subs{stream="b"} 0`, "# TYPE subs gauge"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label arity mismatch did not panic")
		}
	}()
	v.With("a", "b")
}

func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`quote"inside`, `quote\"inside`},
		{"line\nbreak", `line\nbreak`},
		{`back\slash`, `back\\slash`},
		{"\\\"\n", `\\\"\n`},
		// UTF-8 and control bytes pass through raw: the exposition format
		// defines no \xNN/\uNNNN escapes, so Go's %q output is invalid here.
		{"λ·W=ñ_avg", "λ·W=ñ_avg"},
		{"tab\there", "tab\there"},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestLabelEscapingInExposition drives hostile stream names through a real
// GaugeVec scrape: the rendered line must use only the three escapes the
// Prometheus text format defines (\\, \", \n) and keep UTF-8 raw.
func TestLabelEscapingInExposition(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("subs", "per-stream subscribers", "stream")
	v.With(`he said "hi"`).Set(1)
	v.With("two\nlines").Set(2)
	v.With("ünïcode-héllo").Set(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`subs{stream="he said \"hi\""} 1`,
		`subs{stream="two\nlines"} 2`,
		`subs{stream="ünïcode-héllo"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, bad := range []string{`\x`, `\u`} {
		if strings.Contains(out, bad) {
			t.Errorf("invalid %q escape leaked into exposition:\n%s", bad, out)
		}
	}
}

func TestDerivedVec(t *testing.T) {
	r := NewRegistry()
	vals := map[string]float64{"b1": 2.5, "b0": 0.25}
	r.DerivedVec("navg", "per-backend occupancy", "backend",
		func() map[string]float64 { return vals })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Children render sorted and fresh from the callback.
	i0 := strings.Index(out, `navg{backend="b0"} 0.25`)
	i1 := strings.Index(out, `navg{backend="b1"} 2.5`)
	if i0 < 0 || i1 < 0 || i0 > i1 {
		t.Fatalf("bad DerivedVec rendering:\n%s", out)
	}
	vals["b0"] = 7
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `navg{backend="b0"} 7`) {
		t.Errorf("DerivedVec not recomputed at scrape:\n%s", sb.String())
	}
}

// TestWarmWithAllocatesNothing: looking up an existing child builds its key
// on the stack, so the per-request metric updates in the serving tiers cost
// no allocation — escaped label values included.
func TestWarmWithAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "c", "backend", "outcome")
	gv := r.GaugeVec("g", "g", "backend")
	hv := r.HistogramVec("h_seconds", "h", nil, "backend")
	name, quoted := "127.0.0.1:18401", `a"b\c`+"\n"
	cv.With(name, "ok").Inc()
	cv.With(quoted, "ok").Inc()
	gv.With(name).Inc()
	hv.With(name).Observe(0.01)
	allocs := testing.AllocsPerRun(100, func() {
		cv.With(name, "ok").Inc()
		cv.With(quoted, "ok").Inc()
		gv.With(name).Inc()
		hv.With(name).Observe(0.01)
	})
	if allocs != 0 {
		t.Fatalf("warm With allocated %v times per round, want 0", allocs)
	}
	if got := cv.With(quoted, "ok").Value(); got != 102 {
		t.Fatalf("escaped child = %d, want 102: a lookup created a second child", got)
	}
}
