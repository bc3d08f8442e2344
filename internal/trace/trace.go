// Package trace is the per-request latency decomposition the paper's
// method implies: if the server publishes its own n_avg, a single
// request should be able to show *where* its W went. A Trace rides the
// request context through the full spine — proxy forward, limiter queue,
// engine pool, runner cache, sim kernel — and each stage records a Span
// splitting its contribution into queue wait (time spent waiting for a
// resource) and service time (time spent doing work).
//
// Spans account exclusive time: a stage wrapped around a child stage (the
// handler around the runner around the sim kernel) subtracts whatever its
// children attributed, so summing every span's queue+service reproduces
// the request's end-to-end W up to the untraced residue — the waterfall
// identity the golden test in internal/service pins at 5%. The one
// exception is parallel fan-out (engine.Map jobs), whose spans measure
// work time, not wall time; their sum legitimately exceeds W.
//
// Recording is cheap and optional: every entry point is a nil-safe no-op
// when the context carries no Trace, so untraced paths (benchmarks, batch
// pipelines) pay one context lookup and nothing else.
package trace

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// MaxSpans bounds one trace's span list; stages recorded past the cap are
// counted in DroppedSpans (and still feed the sink's stage stats) so a
// 90-job table fan-out cannot balloon the ring's memory.
const MaxSpans = 128

// typicalSpans sizes a sink-minted trace's span list up front: a served
// request records about this many (limit, handler, runner, engine, sim and
// a marker or two), so the list is allocated once instead of grown.
const typicalSpans = 8

// Span is one stage's contribution to a request's latency, split into
// queue wait and service time. Start is the offset from the trace start.
type Span struct {
	Stage   string        `json:"stage"`
	Note    string        `json:"note,omitempty"`
	Start   time.Duration `json:"-"`
	Queue   time.Duration `json:"-"`
	Service time.Duration `json:"-"`
}

// Trace is one request's record: an identifier, a route, and the spans its
// stages recorded. Construct with New or Sink.Start; all methods are safe
// for concurrent use and nil-safe, so holding a *Trace that may be nil
// costs nothing.
type Trace struct {
	id    string
	route string
	start time.Time
	sink  *Sink // nil for free-standing traces

	mu         sync.Mutex
	spans      []Span
	attributed time.Duration // Σ queue+service over recorded spans
	dropped    int
	total      time.Duration
	status     int
	done       bool
}

// New builds a free-standing trace (no sink) — tests and one-off callers.
func New(id, route string) *Trace {
	return &Trace{id: id, route: route, start: time.Now()}
}

// ID returns the trace identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Route returns the route the trace was started for.
func (t *Trace) Route() string {
	if t == nil {
		return ""
	}
	return t.route
}

type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Add records a completed span whose durations the stage already measured:
// queue wait plus service time, ending now. Zero-duration spans are legal
// and serve as decision markers (a hedge fired, a failover happened).
func (t *Trace) Add(stage, note string, queue, service time.Duration) {
	if t == nil {
		return
	}
	start := time.Since(t.start) - queue - service
	if start < 0 {
		start = 0
	}
	t.record(Span{Stage: stage, Note: note, Start: start, Queue: queue, Service: service})
}

// Add records a span on the context's trace, if any.
func Add(ctx context.Context, stage, note string, queue, service time.Duration) {
	FromContext(ctx).Add(stage, note, queue, service)
}

// Active is an in-progress span opened with Begin. Its End records
// *exclusive* service time: elapsed wall time minus whatever child spans
// attributed in the meantime minus the declared queue wait — which is what
// makes nested stages sum to the request's W instead of double counting.
type Active struct {
	t      *Trace
	stage  string
	begin  time.Time
	attrAt time.Duration
	queue  time.Duration
}

// Begin opens a span on t; nil traces return a nil Active whose methods
// no-op.
func (t *Trace) Begin(stage string) *Active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	attr := t.attributed
	t.mu.Unlock()
	return &Active{t: t, stage: stage, begin: time.Now(), attrAt: attr}
}

// Begin opens a span on the context's trace, if any.
func Begin(ctx context.Context, stage string) *Active {
	return FromContext(ctx).Begin(stage)
}

// SetQueue declares how long the stage waited *before* Begin was called
// (pool wait ahead of pickup); the span's start shifts back to cover it.
func (a *Active) SetQueue(d time.Duration) {
	if a != nil && d > 0 {
		a.queue = d
	}
}

// End closes the span: service time is the elapsed wall time since Begin
// minus child attribution, clamped at zero (parallel children can
// attribute more than this goroutine's window saw).
func (a *Active) End(note string) {
	if a == nil {
		return
	}
	t := a.t
	elapsed := time.Since(a.begin)
	t.mu.Lock()
	child := t.attributed - a.attrAt
	t.mu.Unlock()
	service := elapsed - child
	if service < 0 {
		service = 0
	}
	start := a.begin.Sub(t.start) - a.queue
	if start < 0 {
		start = 0
	}
	t.record(Span{Stage: a.stage, Note: note, Start: start, Queue: a.queue, Service: service})
}

// record appends the span (or counts it dropped past MaxSpans), bumps the
// attribution sum, and feeds the sink's per-stage aggregates.
func (t *Trace) record(sp Span) {
	t.mu.Lock()
	t.attributed += sp.Queue + sp.Service
	if len(t.spans) < MaxSpans {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if t.sink != nil {
		// The span's end, rebuilt from its own offsets: reading the clock
		// again would cost more than the whole observation.
		residence := sp.Queue + sp.Service
		t.sink.observe(sp.Stage, t.start.Add(sp.Start+residence), residence)
	}
}

// Finish seals the trace with the response status and the end-to-end
// latency the server measured. Later spans are still accepted (a detached
// goroutine may drain after the response) but the ring snapshot is taken
// from whatever Finish saw.
func (t *Trace) Finish(status int, total time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = status
	t.total = total
	t.done = true
	t.mu.Unlock()
}

// Attributed returns the queue+service sum across every recorded span.
func (t *Trace) Attributed() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attributed
}

// SpanView is a Span rendered for JSON: millisecond floats, because a
// waterfall is read by a human.
type SpanView struct {
	Stage     string  `json:"stage"`
	Note      string  `json:"note,omitempty"`
	StartMs   float64 `json:"start_ms"`
	QueueMs   float64 `json:"queue_ms"`
	ServiceMs float64 `json:"service_ms"`
}

// View is a Trace snapshot: the JSON waterfall GET /v1/trace/{id} serves.
type View struct {
	ID    string `json:"id"`
	Route string `json:"route"`
	// Status is the response code, 0 while the request is in flight.
	Status  int     `json:"status,omitempty"`
	StartNs int64   `json:"start_unix_ns"`
	TotalMs float64 `json:"total_ms"`
	// AttributedMs sums queue+service over the spans; TotalMs minus this
	// is the untraced residue the waterfall identity bounds.
	AttributedMs float64    `json:"attributed_ms"`
	Spans        []SpanView `json:"spans"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
}

const ms = float64(time.Millisecond)

// View snapshots the trace.
func (t *Trace) View() View {
	if t == nil {
		return View{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.total
	if !t.done {
		total = time.Since(t.start)
	}
	v := View{
		ID:           t.id,
		Route:        t.route,
		Status:       t.status,
		StartNs:      t.start.UnixNano(),
		TotalMs:      float64(total) / ms,
		AttributedMs: float64(t.attributed) / ms,
		DroppedSpans: t.dropped,
		Spans:        make([]SpanView, len(t.spans)),
	}
	for i, sp := range t.spans {
		v.Spans[i] = SpanView{
			Stage:     sp.Stage,
			Note:      sp.Note,
			StartMs:   float64(sp.Start) / ms,
			QueueMs:   float64(sp.Queue) / ms,
			ServiceMs: float64(sp.Service) / ms,
		}
	}
	return v
}

// Summary renders the compact one-line waterfall the X-Trace-Summary
// response header carries: "stage[=note] queueMs+serviceMs; ...; total N".
// Taken at first-write time it reflects the spans recorded so far — the
// ring's JSON view is the complete record.
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := make([]byte, 0, 32*len(t.spans)+24)
	for _, sp := range t.spans {
		if len(b) > 0 {
			b = append(b, "; "...)
		}
		b = append(b, sp.Stage...)
		if sp.Note != "" {
			b = append(b, '=')
			b = append(b, sp.Note...)
		}
		b = append(b, ' ')
		b = appendMs(b, sp.Queue)
		b = append(b, '+')
		b = appendMs(b, sp.Service)
	}
	total := t.total
	if !t.done {
		total = time.Since(t.start)
	}
	if len(b) > 0 {
		b = append(b, "; "...)
	}
	b = append(b, "total "...)
	b = appendMs(b, total)
	b = append(b, "ms"...)
	return string(b)
}

// appendMs appends d in milliseconds as fmt's %.1f would.
func appendMs(b []byte, d time.Duration) []byte {
	return strconv.AppendFloat(b, float64(d)/ms, 'f', 1, 64)
}
