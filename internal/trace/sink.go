package trace

import (
	"crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/metrics"
	"littleslaw/internal/queueing"
)

// DefaultCapacity bounds the ring when NewSink is given 0.
const DefaultCapacity = 256

// Record is one finished trace as published to a tail stream (the NDJSON
// body of GET /v1/traces). Seq is assigned by the broker at publish time.
// Terminal, when set, marks the last record a draining server will ever
// publish ("shutdown") so tailing clients can distinguish a graceful close
// from a dropped connection; terminal records carry no trace.
type Record struct {
	Seq      int    `json:"seq"`
	Trace    View   `json:"trace"`
	Terminal string `json:"terminal,omitempty"`
}

// Sink owns a service's traces: it mints request traces, retains the last
// capacity finished ones in a ring indexed by id, aggregates per-stage
// λ/W/n_avg for /metrics, and hands finished traces to OnFinish (the
// service publishes them to its tail broker there).
type Sink struct {
	capacity int
	prefix   uint32
	ctr      atomic.Uint64
	start    time.Time

	// OnFinish, if set before traffic, observes every finished trace
	// handed to Done. It must not block.
	OnFinish func(*Trace)

	mu   sync.Mutex
	ring []*Trace // circular once full
	next int
	byID map[string]*Trace

	// stats measures each stage across every trace the sink saw. A stage
	// learns its residence only when a span ends, so the estimators are fed
	// by Observe, all from the sink's own start.
	statsMu sync.Mutex
	stats   []stageEst
}

// stageEst is one stage's estimator. Stage names are a handful of literals
// in the code, so a scanned slice finds one faster than a map would hash it.
type stageEst struct {
	stage string
	est   queueing.Estimator
}

// NewSink builds a sink retaining up to capacity finished traces
// (0 = DefaultCapacity).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	var seed [4]byte
	rand.Read(seed[:])
	return &Sink{
		capacity: capacity,
		prefix:   binary.BigEndian.Uint32(seed[:]),
		start:    time.Now(),
		byID:     make(map[string]*Trace, capacity),
	}
}

// Start mints a trace for one request on the named route. The id is a
// random per-sink prefix plus a counter — unique within the sink, cheap
// enough for every request.
func (s *Sink) Start(route string) *Trace {
	if s == nil {
		return nil
	}
	id := hexID(s.prefix, uint32(s.ctr.Add(1)))
	return &Trace{id: id, route: route, start: time.Now(), sink: s, spans: make([]Span, 0, typicalSpans)}
}

// hexID renders prefix and n as fmt's "%08x%08x" would: sixteen lowercase
// hex digits.
func hexID(prefix, n uint32) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	v := uint64(prefix)<<32 | uint64(n)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Done retains a finished trace in the ring (evicting the oldest) and
// notifies OnFinish. Traces not produced by this sink's Start are retained
// all the same.
func (s *Sink) Done(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	if len(s.ring) < s.capacity {
		s.ring = append(s.ring, t)
	} else {
		old := s.ring[s.next]
		delete(s.byID, old.id)
		s.ring[s.next] = t
		s.next = (s.next + 1) % s.capacity
	}
	s.byID[t.id] = t
	s.mu.Unlock()
	if s.OnFinish != nil {
		s.OnFinish(t)
	}
}

// Get returns the retained trace with the given id.
func (s *Sink) Get(id string) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	return t, ok
}

// Len returns how many finished traces the ring holds.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// observe feeds one span, ending at end, into the per-stage estimators.
func (s *Sink) observe(stage string, end time.Time, residence time.Duration) {
	s.statsMu.Lock()
	i := 0
	for i < len(s.stats) && s.stats[i].stage != stage {
		i++
	}
	if i == len(s.stats) {
		s.stats = append(s.stats, stageEst{stage, queueing.NewEstimator(0, s.start)})
	}
	s.stats[i].est.Observe(end, residence)
	s.statsMu.Unlock()
}

// StageRates returns per-stage (λ, W, n_avg) over the sink's decay window:
// span arrivals per second, mean residence seconds, and the stage-seconds
// per second they multiply to — the same measurement as the runner's
// occupancy gauge, so the two must reconcile.
func (s *Sink) StageRates() (lambda, w, navg map[string]float64) {
	now := time.Now()
	lambda = map[string]float64{}
	w = map[string]float64{}
	navg = map[string]float64{}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	for i := range s.stats {
		st := &s.stats[i]
		lambda[st.stage] = st.est.Lambda(now)
		w[st.stage] = st.est.W(now)
		navg[st.stage] = st.est.NAvg(now)
	}
	return lambda, w, navg
}

// Register exposes the per-stage Little's-Law decomposition on reg under
// prefix: <prefix>_stage_lambda, _stage_w_seconds and _stage_navg, each
// labeled by stage and each read off that stage's queueing.Estimator.
func (s *Sink) Register(reg *metrics.Registry, prefix string) {
	reg.DerivedVec(prefix+"_stage_lambda",
		"Per-stage span arrival rate over the decay window, per second.",
		"stage", func() map[string]float64 { l, _, _ := s.StageRates(); return l })
	reg.DerivedVec(prefix+"_stage_w_seconds",
		"Per-stage mean residence W over the decay window: queue wait plus service time per span.",
		"stage", func() map[string]float64 { _, w, _ := s.StageRates(); return w })
	reg.DerivedVec(prefix+"_stage_navg",
		"Per-stage measured occupancy n_avg = lambda*W: windowed stage seconds per second.",
		"stage", func() map[string]float64 { _, _, n := s.StageRates(); return n })
}
