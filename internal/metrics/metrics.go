// Package metrics is a dependency-free instrumentation registry for the
// analysis service: counters, gauges and latency histograms exposed in the
// Prometheus text format.
//
// It also closes the loop with the paper: a long-running service is itself
// a queueing system, so Occupancy measures a layer's own n_avg — the
// windowed time-average of its exact in-flight count, one
// queueing.Estimator behind a lock — for export next to that in-flight
// count. On a stationary server the two agree, which is Equation 1
// observed about the observer.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/queueing"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set forces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency histogram bucket upper bounds, in
// seconds, spanning sub-millisecond cache hits to multi-minute full-scale
// table regenerations.
var DefBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300,
}

// Histogram accumulates observations into cumulative buckets, plus a sum
// and count, in the Prometheus style.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus +Inf at the end
	count  atomic.Uint64
	sum    atomicFloat
}

// atomicFloat is an atomic float64 (bits in a uint64, CAS add).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (for latencies: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// metric is one registered family.
type metric struct {
	name, help, kind string
	write            func(w io.Writer, name string)
}

// Registry holds registered metrics and renders them. The zero value is
// not useful; construct with NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) register(name, help, kind string, write func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, &metric{name: name, help: help, kind: kind, write: write})
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
	return c
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds in seconds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, "histogram", func(w io.Writer, n string) {
		writeHistogram(w, n, "", h)
	})
	return h
}

// Derived registers a gauge whose value is computed at scrape time.
func (r *Registry) Derived(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %g\n", n, fn())
	})
}

// DerivedCounter registers a counter whose value is read at scrape time —
// for monotonic counts maintained outside the registry (the admission
// limiter keeps its own totals under its own lock).
func (r *Registry) DerivedCounter(name, help string, fn func() uint64) {
	r.register(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	})
}

// DerivedVec registers a labeled gauge family whose children are computed
// at scrape time: fn returns the current value per label value. Built for
// live estimates held outside the registry (the cluster proxy's per-backend
// Little's-Law occupancy must be decayed to "now" at every scrape, which a
// stored GaugeVec — integer-valued and only as fresh as its last Set —
// cannot express).
func (r *Registry) DerivedVec(name, help, label string, fn func() map[string]float64) {
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		vals := fn()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s=\"%s\"} %g\n", n, label, EscapeLabelValue(k), vals[k])
		}
	})
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*Counter
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, children: map[string]*Counter{}}
	r.register(name, help, "counter", func(w io.Writer, n string) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.children))
		for k := range v.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s} %d\n", n, k, v.children[k].Value())
		}
		v.mu.Unlock()
	})
	return v
}

// With returns the child counter for the given label values (one per
// label, in registration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: want %d label values, got %d", len(v.labels), len(values)))
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{}
		v.children[key] = c
	}
	return c
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*Gauge
}

// GaugeVec registers and returns a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{labels: labels, children: map[string]*Gauge{}}
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.children))
		for k := range v.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s} %d\n", n, k, v.children[k].Value())
		}
		v.mu.Unlock()
	})
	return v
}

// With returns the child gauge for the given label values (one per label,
// in registration order), creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: want %d label values, got %d", len(v.labels), len(values)))
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[key]
	if !ok {
		g = &Gauge{}
		v.children[key] = g
	}
	return g
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*Histogram
}

// HistogramVec registers and returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{labels: labels, bounds: bounds, children: map[string]*Histogram{}}
	r.register(name, help, "histogram", func(w io.Writer, n string) {
		v.mu.Lock()
		keys := make([]string, 0, len(v.children))
		for k := range v.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeHistogram(w, n, k, v.children[k])
		}
		v.mu.Unlock()
	})
	return v
}

// With returns the child histogram for the given label values, creating it
// on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: want %d label values, got %d", len(v.labels), len(values)))
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[key]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[key] = h
	}
	return h
}

func labelKey(labels, values []string) string {
	s := ""
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += l + `="` + EscapeLabelValue(values[i]) + `"`
	}
	return s
}

// EscapeLabelValue escapes a label value for the Prometheus text exposition
// format, which defines exactly three escapes inside a quoted label value:
// backslash, double quote and line feed. Go's %q must not be used here — it
// emits \xNN/\uNNNN sequences for control and non-ASCII bytes, which the
// format does not define (label values are raw UTF-8).
func EscapeLabelValue(v string) string {
	// Fast path: nothing to escape (the common case for route/stream names).
	i := 0
	for ; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			break
		}
	}
	if i == len(v) {
		return v
	}
	var b []byte
	b = append(b, v[:i]...)
	for ; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return string(b)
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	cum := uint64(0)
	sep, extra := "{", "}"
	if labels != "" {
		sep, extra = "{"+labels+",", "}"
	}
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=%q%s %d\n", name, sep, fmt.Sprintf("%g", b), extra, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", name, sep, extra, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum())
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
	}
}

// Occupancy is a request envelope's measured concurrency: a
// queueing.Estimator on the wall clock, guarded for concurrent use by the
// layers (the request envelope of each binary, the simulation runner) that
// own no lock of their own to put one under.
type Occupancy struct {
	mu  sync.Mutex
	est queueing.Estimator
	now func() time.Time // test hook
}

// NewOccupancy starts measuring now, over the default decay window.
func NewOccupancy() *Occupancy {
	return &Occupancy{est: queueing.NewEstimator(0, time.Now()), now: time.Now}
}

// Arrive records one request entering the layer.
func (o *Occupancy) Arrive() {
	now := o.now()
	o.mu.Lock()
	o.est.Arrive(now)
	o.mu.Unlock()
}

// Complete records one request leaving the layer.
func (o *Occupancy) Complete() {
	now := o.now()
	o.mu.Lock()
	o.est.Complete(now)
	o.mu.Unlock()
}

// InFlight returns the exact number of requests inside the layer.
func (o *Occupancy) InFlight() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return int64(o.est.InFlight())
}

// NAvg returns the windowed time-average of InFlight.
func (o *Occupancy) NAvg() float64 {
	now := o.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.est.NAvg(now)
}

// Mean returns busy seconds over uptime since NewOccupancy, undecayed.
func (o *Occupancy) Mean() float64 {
	now := o.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.est.Mean(now)
}

// WritePrometheus renders every registered metric in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
			return err
		}
		m.write(w, m.name)
	}
	return nil
}
