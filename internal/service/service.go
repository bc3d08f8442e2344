// Package service puts the Little's-Law analysis pipeline behind a
// long-running HTTP JSON API — analysis as a service rather than a
// one-shot CLI. It exposes the facade's verbs (/v1/platforms,
// /v1/characterize, /v1/analyze, /v1/advise, /v1/tune, /v1/tables/{id})
// on top of the concurrent engine, with LRU+singleflight caches for the
// expensive once-per-platform profiles and per-(table, scale) results,
// per-request timeouts propagated through context, and an instrumentation
// registry at /metrics.
//
// The service practices what the paper preaches: /metrics exports the
// server's own measured n_avg (the windowed time-average of its in-flight
// count) next to the directly sampled in-flight gauge, so the law can be
// checked against the system that computes it.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/analytic"
	"littleslaw/internal/autotune"
	"littleslaw/internal/brownout"
	"littleslaw/internal/buildinfo"
	"littleslaw/internal/core"
	"littleslaw/internal/engine"
	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/limit"
	"littleslaw/internal/metrics"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
	"littleslaw/internal/stream"
	"littleslaw/internal/trace"
	"littleslaw/internal/workloads"
	"littleslaw/internal/xmem"
)

// Config tunes a Server. The zero value serves the honest pipeline with
// production defaults.
type Config struct {
	// DefaultTimeout bounds a request when the client does not pass
	// ?timeout=; 0 means 5m (characterizations and full-scale tables are
	// legitimately slow).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts; 0 means 30m.
	MaxTimeout time.Duration
	// Workers bounds per-request simulation concurrency (0 = GOMAXPROCS).
	Workers int
	// ProfileFor overrides the X-Mem characterization as the profile
	// source (tests; the llserved -paper-profiles mode). It must honor
	// ctx if it blocks, or request timeouts cannot interrupt it.
	ProfileFor func(context.Context, *platform.Platform) (*queueing.Curve, error)
	// Platforms restricts table regeneration to the named machines
	// (nil = all three; tests use one platform for speed).
	Platforms []string
	// Registry receives the service metrics (nil = a fresh registry).
	Registry *metrics.Registry
	// SimRunner is the simulation spine this server's workload analyses run
	// through (nil = runner.Default(), the process-wide cache). Tests that
	// boot several in-process backends give each its own so cache-affinity
	// effects are observable per server.
	SimRunner *runner.Runner

	// LimitCeiling is the admission controller's MSHR-style occupancy
	// ceiling: requests are admitted while fewer than this many are in
	// flight, queued briefly at it, and shed with 429 + Retry-After beyond
	// the queue (0 = 64; negative disables admission control).
	LimitCeiling float64
	// LimitQueue bounds the admission FIFO (0 = 2×ceiling; negative =
	// shed immediately with no queue).
	LimitQueue int
	// LimitQueueTimeout is the per-request deadline while queued for
	// admission (0 = 5s; the request's own deadline also applies).
	LimitQueueTimeout time.Duration
	// Brownout tunes the degradation ladder (zero fields take the
	// brownout defaults). The controller exists whenever admission control
	// is on — its pressure signal is the limiter's measured occupancy —
	// unless DisableBrownout opts out (the binary-shedding baseline).
	Brownout        brownout.Config
	DisableBrownout bool
	// RunnerTTL bounds how long the simulation runner's cached results
	// count as fresh: past it, B0 recomputes and B1 serves them marked
	// stale (0 = entries never expire, the seed behaviour — B1 then only
	// differs from B0 for entries that never expire, i.e. not at all, so
	// set a TTL when enabling brownout).
	RunnerTTL time.Duration
	// MaxStreamClients caps concurrent /v1/watch connections — streams are
	// limited by subscriber count, not latency, because a healthy stream
	// lasts as long as its client (0 = 64; negative disables the cap).
	MaxStreamClients int
	// WriteTimeout is the per-write deadline armed immediately before each
	// response write (0 = 1m). It bounds how long a stalled client can
	// hold a connection without imposing a whole-response deadline that
	// would kill long-lived /v1/watch streams.
	WriteTimeout time.Duration

	// TraceCapacity bounds the ring of finished request traces served by
	// GET /v1/trace/{id} and replayed by GET /v1/traces
	// (0 = trace.DefaultCapacity).
	TraceCapacity int

	// FaultInjector is the fault layer the per-handler sites and the
	// /v1/faults admin endpoint operate on (nil = faults.Global(), the
	// injector the rest of the stack — runner, engine, limiter, stream —
	// evaluates; tests may isolate themselves with their own).
	FaultInjector *faults.Injector
}

func (c *Config) normalize() {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.LimitCeiling == 0 {
		c.LimitCeiling = 64
	}
	if c.LimitQueueTimeout == 0 {
		c.LimitQueueTimeout = 5 * time.Second
	}
	if c.MaxStreamClients == 0 {
		c.MaxStreamClients = 64
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = time.Minute
	}
	if c.FaultInjector == nil {
		c.FaultInjector = faults.Global()
	}
	if c.SimRunner == nil {
		c.SimRunner = runner.Default()
	}
}

// tableCacheSize bounds the rendered tables kept per (table, scale).
const tableCacheSize = 32

// tableKey identifies one cached table regeneration.
type tableKey struct {
	id    string
	scale float64
}

// Server is the analysis service. Construct with New; its Handler is safe
// for concurrent use.
type Server struct {
	cfg Config
	reg *metrics.Registry

	profiles *xmem.Profiles
	// tables memoizes a rendered view, not simulation results (those live
	// in internal/runner): a cached table is served as regenerated, whatever
	// -runner-ttl has since expired beneath it.
	tables *engine.LRU[tableKey, *experiments.Table]

	limiter  *limit.Limiter
	sessions *limit.Sessions
	faults   *faults.Injector
	brownout *brownout.Controller

	draining  atomic.Bool
	drainOnce sync.Once
	liveMu    sync.Mutex
	// liveStreams tracks ad-hoc watch brokers (unnamed streams) still
	// serving their originating request, so BeginDrain can send them the
	// terminal shutdown event; named brokers live in watches.
	liveStreams map[*stream.Broker]struct{}

	traces      *trace.Sink
	traceBroker *stream.BrokerOf[trace.Record]

	requests    *metrics.CounterVec
	latency     *metrics.HistogramVec
	occupancy   *metrics.Occupancy // the envelope's exact in-flight and its n_avg
	cacheEvents *metrics.CounterVec
	admissions  *metrics.CounterVec

	streamSubs    *metrics.GaugeVec
	streamEvents  *metrics.CounterVec
	streamDropped *metrics.CounterVec

	watchMu sync.Mutex
	watches map[string]*stream.Broker

	mux *http.ServeMux
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg.normalize()
	profileSource := cfg.ProfileFor
	if profileSource == nil {
		profileSource = func(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return xmem.CharacterizeContext(ctx, p, xmem.Options{Workers: cfg.Workers})
		}
	}
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Registry,
		profiles:    xmem.NewProfiles(profileSource),
		tables:      engine.NewLRU[tableKey, *experiments.Table](tableCacheSize),
		watches:     map[string]*stream.Broker{},
		liveStreams: map[*stream.Broker]struct{}{},
		faults:      cfg.FaultInjector,
		occupancy:   metrics.NewOccupancy(),
	}
	if cfg.RunnerTTL > 0 {
		cfg.SimRunner.SetTTL(cfg.RunnerTTL)
	}
	s.traces = trace.NewSink(cfg.TraceCapacity)
	s.traceBroker = stream.NewBrokerOf[trace.Record](cfg.TraceCapacity,
		func(rec *trace.Record, seq int) { rec.Seq = seq })
	s.traces.OnFinish = func(t *trace.Trace) { s.traceBroker.Publish(trace.Record{Trace: t.View()}) }
	if cfg.LimitCeiling > 0 {
		s.limiter = limit.New(limit.Config{
			Ceiling:      cfg.LimitCeiling,
			MaxQueue:     cfg.LimitQueue,
			QueueTimeout: cfg.LimitQueueTimeout,
		})
	}
	if cfg.MaxStreamClients > 0 {
		s.sessions = limit.NewSessions(cfg.MaxStreamClients)
	}
	// The brownout controller rides on the limiter: its pressure signal is
	// the limiter's measured occupancy, so without admission control there
	// is nothing to observe and the ladder stays off.
	if s.limiter != nil && !cfg.DisableBrownout {
		ctrl, err := brownout.NewController(cfg.Brownout)
		if err != nil {
			panic(fmt.Sprintf("service: invalid brownout config: %v", err))
		}
		s.brownout = ctrl
	}
	s.requests = s.reg.CounterVec("llserved_requests_total",
		"Completed HTTP requests by handler and status code.", "handler", "code")
	s.latency = s.reg.HistogramVec("llserved_request_seconds",
		"Request latency by handler.", nil, "handler")
	s.reg.Derived("llserved_inflight_requests",
		"Requests currently being served (the directly sampled occupancy).",
		func() float64 { return float64(s.occupancy.InFlight()) })
	s.cacheEvents = s.reg.CounterVec("llserved_cache_events_total",
		"Cache lookups by cache and outcome.", "cache", "event")
	s.streamSubs = s.reg.GaugeVec("llserved_stream_subscribers",
		"Subscribers currently attached to a watch stream.", "stream")
	s.streamEvents = s.reg.CounterVec("llserved_stream_events_total",
		"Events published to a watch stream.", "stream")
	s.streamDropped = s.reg.CounterVec("llserved_stream_dropped_total",
		"Events dropped (oldest-first) on slow watch subscribers.", "stream")
	s.reg.Derived("llserved_littles_law_concurrency",
		"The server's own n_avg: windowed time-average of llserved_inflight_requests "+
			"(Equation 1 measured on the service itself).",
		s.occupancy.NAvg)
	s.admissions = s.reg.CounterVec("llserved_limiter_decisions_total",
		"Admission decisions by handler and outcome (admitted, queued, shed, expired).",
		"handler", "decision")
	if s.limiter != nil {
		s.reg.Derived("llserved_limiter_navg",
			"The admission controller's measured occupancy: windowed time-average of llserved_limiter_inflight.",
			func() float64 { return s.limiter.Snapshot().NAvg })
		s.reg.Derived("llserved_limiter_ceiling",
			"The admission controller's MSHR-style occupancy ceiling.",
			func() float64 { return s.limiter.Snapshot().Ceiling })
		s.reg.Derived("llserved_limiter_inflight",
			"Requests currently admitted by the limiter and not yet complete.",
			func() float64 { return float64(s.limiter.Snapshot().InFlight) })
		s.reg.Derived("llserved_limiter_queue_depth",
			"Arrivals waiting in the bounded admission FIFO.",
			func() float64 { return float64(s.limiter.Snapshot().QueueDepth) })
		s.reg.DerivedCounter("llserved_limiter_shed_total",
			"Arrivals shed with 429 + Retry-After (queue full or queue deadline hit).",
			func() uint64 { return s.limiter.Snapshot().Shed })
		s.reg.DerivedCounter("llserved_limiter_admitted_total",
			"Arrivals admitted by the limiter (immediately or after queueing).",
			func() uint64 { return s.limiter.Snapshot().Admitted })
	}
	if s.brownout != nil {
		s.brownout.Register(s.reg, "llserved_brownout")
		s.reg.Derived("llserved_brownout_pressure",
			"The brownout controller's input: max(inflight+queued, n_avg) / ceiling.",
			s.pressure)
	}
	s.reg.Derived("llserved_draining",
		"1 once shutdown drain began (healthz reports draining, new work sheds), else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})
	// The simulation spine's own instrumentation: analyze requests bottom
	// out in the server's runner (runner.Default() unless the config
	// isolated one — the table/tune pipelines always share the default), so
	// its cache and occupancy telemetry belong on the service's scrape page.
	cfg.SimRunner.Register(s.reg, "llserved_runner")
	// The per-stage decomposition: λ, W and n_avg for every traced stage,
	// the same busy-seconds-over-uptime construction as the runner's
	// occupancy gauge — so llserved_trace_stage_navg{stage="sim"} and
	// llserved_runner_littles_occupancy must agree.
	s.traces.Register(s.reg, "llserved_trace")
	s.reg.Derived("llserved_faults_enabled",
		"1 when the fault-injection layer is evaluating rules, 0 when it is a no-op.",
		func() float64 {
			if s.faults.Enabled() {
				return 1
			}
			return 0
		})
	s.reg.DerivedCounter("llserved_faults_injected_total",
		"Faults fired across every instrumented site since the injector was configured.",
		s.faults.FiredTotal)
	if s.sessions != nil {
		s.reg.Derived("llserved_stream_clients",
			"Live /v1/watch connections counted against the subscriber cap.",
			func() float64 { return float64(s.sessions.Active()) })
		s.reg.DerivedCounter("llserved_stream_denied_total",
			"/v1/watch connections rejected at the subscriber cap.",
			func() uint64 { return s.sessions.Denied() })
	}

	s.mux = http.NewServeMux()
	s.mux.Handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	s.mux.Handle("GET /v1/platforms", s.instrument("platforms", s.handlePlatforms))
	s.mux.Handle("POST /v1/characterize", s.instrument("characterize", s.handleCharacterize))
	s.mux.Handle("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	s.mux.Handle("POST /v1/analyze/batch", s.instrument("analyze_batch", s.handleAnalyzeBatch))
	s.mux.Handle("POST /v1/advise", s.instrument("advise", s.handleAdvise))
	s.mux.Handle("POST /v1/tune", s.instrument("tune", s.handleTune))
	s.mux.Handle("GET /v1/tables/{id}", s.instrument("tables", s.handleTable))
	s.mux.Handle("POST /v1/watch", s.instrumentStream("watch", s.handleWatch))
	s.mux.Handle("GET /v1/watch/{stream}", s.instrumentStream("watch_subscribe", s.handleWatchSubscribe))
	// The faults admin endpoints sit outside the admission controller on
	// purpose: during a chaos run the limiter may be shedding everything,
	// and the kill switch must still answer.
	s.mux.Handle("GET /v1/faults", http.HandlerFunc(s.handleFaultsGet))
	s.mux.Handle("POST /v1/faults", http.HandlerFunc(s.handleFaultsPost))
	// The trace endpoints likewise bypass the limiter and the tracer: the
	// tool for diagnosing overload must answer during overload, and a trace
	// of fetching a trace is noise. The single-trace lookup stays alive at
	// every brownout rung for the same reason; only the tail stream
	// (long-lived, non-critical) sheds at B3 — handleTraces checks itself.
	s.mux.Handle("GET /v1/trace/{id}", http.HandlerFunc(s.handleTraceGet))
	s.mux.Handle("GET /v1/traces", http.HandlerFunc(s.handleTraces))
	// The brownout admin surface is admin-tier like /v1/faults: reading or
	// pinning the ladder must work while the ladder is shedding.
	s.mux.Handle("GET /v1/brownout", http.HandlerFunc(s.handleBrownoutGet))
	s.mux.Handle("POST /v1/brownout", http.HandlerFunc(s.handleBrownoutPost))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry serving /metrics.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// httpError carries a status code chosen at the failure site, plus an
// optional Retry-After hint for shed requests.
type httpError struct {
	status     int
	err        error
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func failWith(status int, err error) error { return &httpError{status: status, err: err} }

func failWithRetry(status int, err error, retryAfter time.Duration) error {
	return &httpError{status: status, err: err, retryAfter: retryAfter}
}

// admitFunc asks an admission gate for permission to run a request,
// returning the release callback to invoke on completion.
type admitFunc func(r *http.Request) (release func(), err error)

// instrument wraps a handler with the per-request envelope — timeout
// context, in-flight gauge, latency histogram, request counter — behind
// the Little's-Law admission controller, which sheds with 429 +
// Retry-After when the requests in flight would pass the ceiling.
func (s *Server) instrument(name string, fn func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	return s.envelope(name, fn, func(r *http.Request) (func(), error) {
		if s.limiter == nil {
			return func() {}, nil
		}
		release, waited, err := s.limiter.Acquire(r.Context(), name)
		if err != nil {
			var shed *limit.ShedError
			if errors.As(err, &shed) {
				s.admissions.With(name, "shed").Inc()
				return nil, failWithRetry(http.StatusTooManyRequests,
					fmt.Errorf("admission denied: server occupancy at ceiling"), shed.RetryAfter)
			}
			// The request's own deadline expired while queued; the usual
			// context mapping (504/499) applies.
			s.admissions.With(name, "expired").Inc()
			return nil, err
		}
		if waited {
			s.admissions.With(name, "queued").Inc()
		}
		s.admissions.With(name, "admitted").Inc()
		return release, nil
	})
}

// instrumentStream is instrument for the streaming routes: /v1/watch
// connections are long-lived, so a latency-based limiter would misread
// them — they are capped by concurrent subscriber count instead.
func (s *Server) instrumentStream(name string, fn func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	return s.envelope(name, fn, func(r *http.Request) (func(), error) {
		if s.sessions == nil {
			return func() {}, nil
		}
		release, ok := s.sessions.Acquire()
		if !ok {
			s.admissions.With(name, "shed").Inc()
			return nil, failWithRetry(http.StatusTooManyRequests,
				fmt.Errorf("stream client limit (%d) reached", s.sessions.Max()), 5*time.Second)
		}
		s.admissions.With(name, "admitted").Inc()
		return release, nil
	})
}

func (s *Server) envelope(name string, fn func(w http.ResponseWriter, r *http.Request) error, admit admitFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.occupancy.Arrive()
		defer s.occupancy.Complete()

		// Every request gets a trace; the id header goes out even on errors
		// so a client holding a 429 or 504 can still fetch the waterfall.
		// The summary header is injected at first write (see statusWriter),
		// when the spans recorded so far are known.
		tr := s.traces.Start(name)
		w.Header().Set("X-Trace-Id", tr.ID())
		sw := &statusWriter{ResponseWriter: w, onFirstWrite: func(h http.Header) {
			h.Set("X-Trace-Summary", tr.Summary())
		}}

		ctx, cancel, err := s.requestContext(r)
		if err != nil {
			s.finish(name, start, s.writeError(sw, r, failWith(http.StatusBadRequest, err)), tr)
			return
		}
		defer cancel()

		// Drain wins over everything: once shutdown began, every /v1
		// request sheds with 503 + Retry-After so a proxy fails it over
		// and a rolling restart stays invisible to clients.
		if s.Draining() {
			s.admissions.With(name, "drained").Inc()
			s.finish(name, start, s.writeError(sw, r, errDraining()), tr)
			return
		}

		// Every request is a pressure sample for the brownout ladder; the
		// resulting mode is stamped on the response (even on sheds — it is
		// the explanation), threaded through context so resolveAnalyze can
		// pick the cheaper path, and noted on the trace so waterfalls show
		// why an answer was analytic or stale.
		mode := s.observeMode()
		if mode > brownout.B0 {
			sw.Header().Set("X-Brownout-Mode", mode.String())
			tr.Add("brownout", mode.String(), 0, 0)
		}
		if mode >= shedAt(name) {
			s.admissions.With(name, "brownout_shed").Inc()
			s.finish(name, start, s.writeError(sw, r, failWithRetry(http.StatusServiceUnavailable,
				fmt.Errorf("brownout %s (%s): route %q shed", mode, mode.Label(), name),
				brownoutRetryAfter)), tr)
			return
		}
		ctx = withMode(ctx, mode)
		r = r.WithContext(trace.NewContext(ctx, tr))

		// Admission happens under the request context, so a queued arrival
		// waits at most min(queue deadline, request deadline) — and under
		// the trace, so the limiter records its queue wait as a span.
		release, err := admit(r)
		if err != nil {
			s.finish(name, start, s.writeError(sw, r, err), tr)
			return
		}
		defer release()

		h := tr.Begin("handler")
		err = s.protect(name, sw, r, fn)
		h.End("")
		if err != nil {
			if sw.status != 0 {
				// The handler already started writing; nothing to salvage.
				s.finish(name, start, sw.status, tr)
				return
			}
			s.finish(name, start, s.writeError(sw, r, err), tr)
			return
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.finish(name, start, status, tr)
	})
}

// protect runs the handler body behind the per-handler fault site and a
// panic-to-500 guard. A panicking handler (injected or real) must produce
// a response and release its admission slot — the deferred release in
// envelope runs on unwind either way, but without the recover here the
// panic would reach net/http, which kills the connection responseless and
// skips the request metrics.
func (s *Server) protect(name string, sw *statusWriter, r *http.Request, fn func(http.ResponseWriter, *http.Request) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = failWith(http.StatusInternalServerError, fmt.Errorf("handler panicked: %v", v))
		}
	}()
	switch f := s.faults.Eval("handler." + name); f.Kind {
	case faults.KindLatency:
		f.Sleep(r.Context())
	case faults.KindError:
		// A transient dependency failure: 503 with a short Retry-After,
		// the shape a resilient client retries.
		return failWithRetry(http.StatusServiceUnavailable, f.Err(), time.Second)
	case faults.KindPanic:
		panic(f.PanicValue())
	}
	return fn(sw, r)
}

func (s *Server) finish(name string, start time.Time, status int, tr *trace.Trace) {
	tr.Finish(status, time.Since(start))
	s.traces.Done(tr)
	s.requests.With(name, strconv.Itoa(status)).Inc()
	s.latency.With(name).Observe(time.Since(start).Seconds())
}

// requestContext derives the per-request deadline: ?timeout=30s overrides
// the default, capped at the configured maximum.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil || parsed <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout %q", v)
		}
		d = min(parsed, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// writeError maps an error to a status code, writes the JSON envelope and
// returns the code. Context expiry wins over whatever the pipeline
// reported, so a timed-out request is a 504 regardless of which layer
// noticed first.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) int {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; 499 in the nginx tradition (never reaches the
		// client, but the metrics distinguish it from server faults).
		status = 499
	case errors.As(err, &he):
		status = he.status
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", limit.RetryAfterSeconds(he.retryAfter))
		}
	}
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
	return status
}

// armWrite arms the per-write deadline immediately before a response
// write: a stalled client can hold the connection for at most WriteTimeout
// past its last successful write, while a healthy long-lived stream is
// never cut. Writers without deadline support (httptest recorders) are
// left alone.
func (s *Server) armWrite(w http.ResponseWriter) {
	if s.cfg.WriteTimeout <= 0 {
		return
	}
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.armWrite(w)
	writeJSON(w, status, v)
}

// hardenHeaders is the one place response hardening happens: every
// response is nosniff, and request-derived payloads (analysis results,
// event streams) are marked uncacheable so no intermediary replays a stale
// verdict.
func hardenHeaders(h http.Header, contentType string, noStore bool) {
	h.Set("Content-Type", contentType)
	h.Set("X-Content-Type-Options", "nosniff")
	if noStore {
		h.Set("Cache-Control", "no-store")
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

// encodeJSON renders v as every JSON response body is written: indented
// two spaces, newline-terminated. A value that cannot be encoded renders as
// an empty body, as it always has.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return b.Bytes()
}

// writeBody writes an encoded JSON body under the hardened headers.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	hardenHeaders(w.Header(), "application/json", true)
	w.WriteHeader(status)
	w.Write(body)
}

// statusWriter records the first status code written and gives the
// envelope a last-moment hook to stamp headers (the trace summary) before
// they go out.
type statusWriter struct {
	http.ResponseWriter
	status       int
	onFirstWrite func(http.Header)
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		if w.onFirstWrite != nil {
			w.onFirstWrite(w.ResponseWriter.Header())
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
		if w.onFirstWrite != nil {
			w.onFirstWrite(w.ResponseWriter.Header())
		}
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush,
// which the streaming handlers need after every event.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, failWith(http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
	}
	return data, nil
}

// ---- profile and table plumbing ----

// profile returns the platform's bandwidth→latency curve from the server's
// once-per-platform Profiles, recording hit/miss metrics.
func (s *Server) profile(ctx context.Context, p *platform.Platform) (*queueing.Curve, bool, error) {
	curve, hit, err := s.profiles.Get(ctx, p)
	s.cacheEvent("profile", hit)
	if err != nil {
		return nil, hit, fmt.Errorf("characterizing %s: %w", p.Name, err)
	}
	return curve, hit, nil
}

// Warm characterizes (and caches) the named platform's profile ahead of
// traffic, reporting whether it was already cached.
func (s *Server) Warm(ctx context.Context, platformName string) (bool, error) {
	p, err := platform.ByName(platformName)
	if err != nil {
		return false, err
	}
	_, hit, err := s.profile(ctx, p)
	return hit, err
}

func (s *Server) cacheEvent(cache string, hit bool) {
	event := "miss"
	if hit {
		event = "hit"
	}
	s.cacheEvents.With(cache, event).Inc()
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthzResponse{Status: "ok", Version: buildinfo.Version()}
	if s.limiter != nil {
		snap := s.limiter.Snapshot()
		h.LimiterNAvg = &snap.NAvg
		h.LimiterCeiling = &snap.Ceiling
		h.LimiterInflight = snap.InFlight
		h.QueueDepth = snap.QueueDepth
		if float64(snap.InFlight) >= snap.Ceiling {
			h.Status = "overloaded"
		}
	}
	if s.brownout != nil {
		// The probe is a pressure sample too: a backend whose only traffic
		// is probes still descends the ladder as load drains away.
		h.BrownoutMode = s.observeMode().String()
	}
	if s.Draining() {
		// Draining wins over overloaded: it tells the prober this backend
		// is leaving, not merely busy.
		h.Status = "draining"
		h.Draining = true
	}
	s.watchMu.Lock()
	h.ActiveStreams = len(s.watches)
	s.watchMu.Unlock()
	if s.sessions != nil {
		h.StreamClients = s.sessions.Active()
	}
	// Always 200: this is liveness plus telemetry, not a gate — the proxy's
	// prober reads the body to weigh a drowning backend, existing checks
	// keep their plain-200 contract (and "ok" still appears in the body).
	s.writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hardenHeaders(w.Header(), "text/plain; version=0.0.4", false)
	s.armWrite(w)
	s.reg.WritePrometheus(w)
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) error {
	var out []PlatformJSON
	for _, p := range platform.All() {
		out = append(out, PlatformJSON{
			Name:      p.Name,
			Vendor:    p.Vendor,
			ISA:       p.ISA,
			Cores:     p.Cores,
			SMTWays:   p.SMTWays,
			FreqGHz:   p.FreqHz / 1e9,
			LineBytes: p.LineBytes,
			PeakGBs:   p.PeakGBs(),
			L1MSHRs:   p.L1.MSHRs,
			L2MSHRs:   p.L2.MSHRs,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
	return nil
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeCharacterizeRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return failWith(http.StatusNotFound, err)
	}
	curve, cached, err := s.profile(r.Context(), p)
	if err != nil {
		return err
	}
	resp := CharacterizeResponse{Platform: p.Name, LineBytes: p.LineBytes, Cached: cached}
	for _, pt := range curve.Points() {
		resp.Points = append(resp.Points, PointJSON{BandwidthGBs: pt.BandwidthGBs, LatencyNs: pt.LatencyNs})
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

// degradation describes how an answer was cheapened under brownout: the
// mode that chose the path, and which marker (Approximate for the
// closed-form analytic model, Stale for an expired cache entry) the
// response must carry. The zero value is a full-fidelity answer.
type degradation struct {
	Mode        brownout.Mode
	Approximate bool
	Stale       bool
}

// Degraded reports whether any marker is set.
func (d degradation) Degraded() bool { return d.Approximate || d.Stale }

// stamp copies the degradation markers into an analyze response.
func (d degradation) stampAnalyze(resp *AnalyzeResponse) {
	if d.Degraded() {
		resp.Degraded = true
		resp.BrownoutMode = d.Mode.String()
		resp.Approximate = d.Approximate
		resp.Stale = d.Stale
	}
}

// resolveAnalyze turns an AnalyzeRequest into (platform, measurement,
// optional run, optional workload) — running the simulation when the
// request names a workload instead of supplying counters. Under brownout
// the simulation step degrades: at B1 the runner may serve an expired
// cache entry (marked Stale), at B2+ the closed-form analytic model
// replaces the kernel entirely (marked Approximate, no Run in the
// response). Direct-measurement requests never involve the kernel and are
// never degraded.
func (s *Server) resolveAnalyze(ctx context.Context, req *AnalyzeRequest) (*platform.Platform, core.Measurement, *sim.Result, workloads.Workload, degradation, error) {
	var deg degradation
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return nil, core.Measurement{}, nil, nil, deg, failWith(http.StatusNotFound, err)
	}
	if req.Measurement != nil {
		return p, req.Measurement.Measurement(), nil, nil, deg, nil
	}
	w, threads, scale, err := resolveWorkload(p, req)
	if err != nil {
		return nil, core.Measurement{}, nil, nil, deg, err
	}
	mode := modeFrom(ctx)

	if mode >= brownout.B2 {
		// Analytic fallback: answer from the closed-form fixed point
		// instead of the kernel — ~10^3× cheaper, within the ablation
		// tolerance of the simulated answer on the golden configs, and
		// always marked Approximate.
		m, err := s.analyticMeasurement(ctx, p, w, threads, scale)
		if err != nil {
			return nil, core.Measurement{}, nil, nil, deg, err
		}
		deg = degradation{Mode: mode, Approximate: true}
		return p, m, nil, w, deg, nil
	}

	cfgSim := w.Config(p, threads, scale)
	var res *sim.Result
	if mode == brownout.B1 {
		var stale bool
		res, stale, err = s.cfg.SimRunner.RunStale(ctx, cfgSim)
		if stale {
			deg = degradation{Mode: mode, Stale: true}
		}
	} else {
		res, err = s.cfg.SimRunner.Run(ctx, cfgSim)
	}
	if err != nil {
		return nil, core.Measurement{}, nil, nil, degradation{}, err
	}
	return p, measured(w, res), res, w, deg, nil
}

// resolveWorkload resolves a workload-bodied request on p to what it asks
// to simulate, applying the defaults (threads 1, scale 0.1).
func resolveWorkload(p *platform.Platform, req *AnalyzeRequest) (w workloads.Workload, threads int, scale float64, err error) {
	w, ok := workloads.ByName(req.Workload)
	if !ok {
		return nil, 0, 0, failWith(http.StatusNotFound, fmt.Errorf("unknown workload %q", req.Workload))
	}
	w = w.WithVariant(req.Variant.Variant())
	threads = req.ThreadsPerCore
	if threads == 0 {
		threads = 1
	}
	if threads > p.SMTWays {
		return nil, 0, 0, failWith(http.StatusBadRequest,
			fmt.Errorf("platform %s supports at most %d threads per core", p.Name, p.SMTWays))
	}
	scale = req.Scale
	if scale == 0 {
		scale = 0.1
	}
	return w, threads, scale, nil
}

// measured shapes a workload's simulated run as the measurement the
// analysis consumes.
func measured(w workloads.Workload, res *sim.Result) core.Measurement {
	return core.Measurement{
		Routine:                w.Routine(),
		BandwidthGBs:           res.TotalGBs,
		ActiveCores:            res.Cores,
		ThreadsPerCore:         res.ThreadsPerCore,
		PrefetchedReadFraction: res.PrefetchedReadFraction,
		RandomAccess:           w.RandomAccess(),
	}
}

// analyticMeasurement is the B2 path: predict the workload's operating
// point with the closed-form model and shape it as a measurement for the
// same downstream core.Analyze the kernel path feeds. The demand
// concurrency comes from the normalized sim config's window (the per-
// thread MLP the generator would expose), so the analytic question matches
// the simulated one.
func (s *Server) analyticMeasurement(ctx context.Context, p *platform.Platform, w workloads.Workload, threads int, scale float64) (core.Measurement, error) {
	norm, err := w.Config(p, threads, scale).Normalized()
	if err != nil {
		return core.Measurement{}, err
	}
	profile, _, err := s.profile(ctx, p)
	if err != nil {
		return core.Measurement{}, err
	}
	a := trace.Begin(ctx, "analytic")
	pred, err := analytic.Predict(p, profile, analytic.Inputs{
		ConcurrencyPerThread: float64(norm.Window),
		ThreadsPerCore:       threads,
		L1Bound:              w.RandomAccess(),
	})
	a.End("predict")
	if err != nil {
		return core.Measurement{}, err
	}
	return core.Measurement{
		Routine:                w.Routine(),
		BandwidthGBs:           pred.BandwidthGBs,
		ActiveCores:            p.Cores,
		ThreadsPerCore:         threads,
		PrefetchedReadFraction: -1,
		RandomAccess:           w.RandomAccess(),
	}, nil
}

// analyzeOne runs one analyze request to a response — the shared core of
// /v1/analyze and /v1/analyze/batch.
func (s *Server) analyzeOne(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	p, m, res, _, deg, err := s.resolveAnalyze(ctx, req)
	if err != nil {
		return nil, err
	}
	profile, _, err := s.profile(ctx, p)
	if err != nil {
		return nil, err
	}
	resp, err := analyzeResponse(p, profile, m, res)
	if err != nil {
		return nil, err
	}
	deg.stampAnalyze(resp)
	return resp, nil
}

// analyzeResponse is the full-fidelity answer to one analysis; res is nil
// for a measurement-bodied request.
func analyzeResponse(p *platform.Platform, profile *queueing.Curve, m core.Measurement, res *sim.Result) (*AnalyzeResponse, error) {
	rep, err := core.Analyze(p, profile, m)
	if err != nil {
		return nil, failWith(http.StatusBadRequest, err)
	}
	resp := &AnalyzeResponse{Report: reportJSON(rep), Explanation: core.Explain(rep)}
	if res != nil {
		resp.Run = runJSON(res)
	}
	return resp, nil
}

// analyzeView answers a workload-bodied analysis at full fidelity from the
// runner entry's kept encoding, so a cache hit is a lookup. A miss renders
// exactly the body analyzeOne and writeJSON would write. The owner is the
// profile curve the answer was rendered against: servers sharing a runner
// with different profile sources each get their own bytes.
func (s *Server) analyzeView(ctx context.Context, req *AnalyzeRequest) ([]byte, error) {
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return nil, failWith(http.StatusNotFound, err)
	}
	w, threads, scale, err := resolveWorkload(p, req)
	if err != nil {
		return nil, err
	}
	profile, _, err := s.profile(ctx, p)
	if err != nil {
		return nil, err
	}
	return s.cfg.SimRunner.RunRendered(ctx, w.Config(p, threads, scale), profile, func(res *sim.Result) ([]byte, error) {
		resp, err := analyzeResponse(p, profile, measured(w, res), res)
		if err != nil {
			return nil, err
		}
		return encodeJSON(resp), nil
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeAnalyzeRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	// A full-fidelity workload answer is served from the runner entry it was
	// rendered from; measurement bodies and degraded answers are built here.
	if req.Measurement == nil && modeFrom(r.Context()) == brownout.B0 {
		out, err := s.analyzeView(r.Context(), req)
		if err != nil {
			return err
		}
		s.armWrite(w)
		writeBody(w, http.StatusOK, out)
		return nil
	}
	resp, err := s.analyzeOne(r.Context(), req)
	if err != nil {
		return err
	}
	if resp.Degraded {
		w.Header().Set("X-Degraded", "true")
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeAnalyzeRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	p, m, _, wl, deg, err := s.resolveAnalyze(r.Context(), req)
	if err != nil {
		return err
	}
	profile, _, err := s.profile(r.Context(), p)
	if err != nil {
		return err
	}
	rep, err := core.Analyze(p, profile, m)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	caps := core.Capabilities{SMTWays: p.SMTWays, CurrentThreads: m.ThreadsPerCore, IrregularAccess: m.RandomAccess}
	if wl != nil {
		caps = wl.Capabilities(p, m.ThreadsPerCore)
	}
	resp := AdviseResponse{Report: reportJSON(rep), Explanation: core.Explain(rep)}
	if deg.Degraded() {
		resp.Degraded = true
		resp.BrownoutMode = deg.Mode.String()
		resp.Approximate = deg.Approximate
		resp.Stale = deg.Stale
		w.Header().Set("X-Degraded", "true")
	}
	for _, a := range core.Advise(rep, caps) {
		resp.Advice = append(resp.Advice, AdviceJSON{
			Optimization: a.Opt.String(),
			Stance:       a.Stance.String(),
			Reason:       a.Reason,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeTuneRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return failWith(http.StatusNotFound, err)
	}
	wl, ok := workloads.ByName(req.Workload)
	if !ok {
		return failWith(http.StatusNotFound, fmt.Errorf("unknown workload %q", req.Workload))
	}
	profile, _, err := s.profile(r.Context(), p)
	if err != nil {
		return err
	}
	res, err := autotune.TuneContext(r.Context(), p, profile, wl, autotune.Options{
		Scale:           req.Scale,
		MaxSteps:        req.MaxSteps,
		AcceptThreshold: req.AcceptThreshold,
		UserIntuition:   req.UserIntuition,
		Workers:         s.cfg.Workers,
	})
	if err != nil {
		return err
	}
	resp := TuneResponse{
		Workload:     res.Workload,
		Platform:     res.Platform,
		FinalSource:  res.FinalVariant.Label(res.FinalThreads),
		TotalSpeedup: res.TotalSpeedup,
		FinalReport:  reportJSON(res.FinalReport),
	}
	for _, st := range res.Steps {
		resp.Steps = append(resp.Steps, TuneStepJSON{
			Tried:    st.Tried.String(),
			Speedup:  st.Speedup,
			Accepted: st.Accepted,
			Report:   reportJSON(st.Report),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) error {
	id, err := NormalizeTableID(r.PathValue("id"))
	if err != nil {
		return failWith(http.StatusNotFound, err)
	}
	scale := 1.0
	if v := r.URL.Query().Get("scale"); v != "" {
		parsed, perr := strconv.ParseFloat(v, 64)
		if perr != nil {
			return failWith(http.StatusBadRequest, fmt.Errorf("invalid scale %q", v))
		}
		if err := validateScale(parsed); err != nil || parsed == 0 {
			return failWith(http.StatusBadRequest, fmt.Errorf("scale must be in (0, 1]"))
		}
		scale = parsed
	}
	tab, cached, err := s.tables.Do(r.Context(), tableKey{id: id, scale: scale},
		func(ctx context.Context) (*experiments.Table, error) {
			return experiments.NewRunner(experiments.Options{
				Scale:     scale,
				Workers:   s.cfg.Workers,
				Platforms: s.cfg.Platforms,
				ProfileFor: func(p *platform.Platform) (*queueing.Curve, error) {
					curve, _, err := s.profile(ctx, p)
					return curve, err
				},
			}).TableContext(ctx, id)
		})
	s.cacheEvent("table", cached)
	if err != nil {
		return err
	}
	resp := TableResponse{ID: tab.ID, Workload: tab.Workload, Routine: tab.Routine, Scale: scale, Cached: cached}
	for _, row := range tab.Rows {
		jr := TableRowJSON{
			Platform:     row.Platform,
			Source:       row.Source,
			Threads:      row.Threads,
			BWGBs:        row.BWGBs,
			PeakPct:      row.PeakPct,
			LatNs:        row.LatNs,
			Occupancy:    row.Occ,
			TrueL1Occ:    row.TrueL1Occ,
			TrueL2Occ:    row.TrueL2Occ,
			NextOpt:      row.NextOpt,
			Speedup:      row.Speedup,
			PaperBW:      row.PaperBW,
			PaperOcc:     row.PaperOcc,
			PaperSpeedup: row.PaperSpeedup,
		}
		if row.NextOpt != "" {
			jr.Stance = row.Stance.String()
		}
		resp.Rows = append(resp.Rows, jr)
	}
	s.writeJSON(w, http.StatusOK, resp)
	return nil
}
