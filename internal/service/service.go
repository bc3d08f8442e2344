// Package service puts the Little's-Law analysis pipeline behind a
// long-running HTTP JSON API — analysis as a service rather than a
// one-shot CLI. It exposes the facade's verbs (/v1/platforms,
// /v1/characterize, /v1/analyze, /v1/advise, /v1/tune, /v1/tables/{id})
// on top of the concurrent engine, with an LRU+singleflight cache for the
// expensive once-per-platform profiles (tables render from runner entries
// on every request), per-request timeouts propagated through context, and
// an instrumentation registry at /metrics.
//
// The service practices what the paper preaches: /metrics exports the
// server's own measured n_avg (the windowed time-average of its in-flight
// count) next to the directly sampled in-flight gauge, so the law can be
// checked against the system that computes it.
package service

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"littleslaw/internal/autotune"
	"littleslaw/internal/brownout"
	"littleslaw/internal/cli"
	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/limit"
	"littleslaw/internal/metrics"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/stream"
	"littleslaw/internal/workloads"
	"littleslaw/internal/xmem"
)

const (
	// MaxTimeout caps a client-requested ?timeout=. llproxy bounds each
	// forward attempt by it too, so the proxy never abandons a request its
	// backend is still allowed to finish.
	MaxTimeout = 30 * time.Minute
	// writeTimeout is the per-write deadline armed immediately before each
	// response write. It bounds how long a stalled client can hold a
	// connection without imposing a whole-response deadline that would kill
	// long-lived /v1/watch streams.
	writeTimeout = time.Minute
)

// Config tunes a Server. The zero value serves the honest pipeline with
// production defaults.
type Config struct {
	// DefaultTimeout bounds a request when the client does not pass
	// ?timeout=; 0 means 5m (characterizations and full-scale tables are
	// legitimately slow). A ?timeout= is capped at MaxTimeout.
	DefaultTimeout time.Duration
	// Workers bounds per-request simulation concurrency (0 = GOMAXPROCS).
	Workers int
	// ProfileFor overrides the X-Mem characterization as the profile
	// source (tests; the llserved -paper-profiles mode). It must honor
	// ctx if it blocks, or request timeouts cannot interrupt it.
	ProfileFor func(context.Context, *platform.Platform) (*queueing.Curve, error)
	// Platforms restricts table regeneration to the named machines
	// (nil = all three; tests use one platform for speed).
	Platforms []string
	// SimRunner is the simulation spine every simulation this server runs
	// goes through: analyses, tables, tuning and watch replays share its
	// cache and its RunnerTTL (nil = a runner of the server's own).
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
	// is on — its pressure signal is what the limiter holds and queues —
	// unless DisableBrownout opts out (the binary-shedding baseline).
	Brownout        brownout.Config
	DisableBrownout bool
	// RunnerTTL bounds how long the simulation runner's cached results
	// count as fresh: past it, B0 recomputes and B1 serves them marked
	// stale (0 = entries never expire, the seed behaviour — B1 then only
	// differs from B0 for entries that never expire, i.e. not at all, so
	// set a TTL when enabling brownout).
	RunnerTTL time.Duration
	// MaxStreamClients is the ceiling of the /v1/watch limiter: connections
	// are admitted while fewer are open and shed with 429 at it, never
	// queued (0 = 64; negative disables the cap).
	MaxStreamClients int

	// TraceCapacity bounds the ring of finished request traces served by
	// GET /v1/trace/{id} and replayed by GET /v1/traces
	// (0 = trace.DefaultCapacity).
	TraceCapacity int

	// FaultInjector is the server's fault layer: every request carries it,
	// so the handler, limiter, engine, runner and stream sites under a
	// request evaluate it, and /v1/faults configures it (nil = one of the
	// server's own, disarmed).
	FaultInjector *faults.Injector
}

func (c *Config) normalize() {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Minute
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
	if c.FaultInjector == nil {
		c.FaultInjector, _ = faults.New(0)
	}
	if c.SimRunner == nil {
		c.SimRunner = runner.New(runner.DefaultCapacity)
	}
}

// Server is the analysis service. Construct with New; its Handler is safe
// for concurrent use. Its request envelope (drain, in-flight count, traces)
// is the one llproxy uses too.
type Server struct {
	*Envelope
	cfg Config
	reg *metrics.Registry

	profiles *xmem.Profiles

	limiter  *limit.Limiter // unary routes
	streams  *limit.Limiter // /v1/watch connections
	brownout *brownout.Controller

	liveMu sync.Mutex
	// liveStreams tracks ad-hoc watch brokers (unnamed streams) still
	// serving their originating request, so BeginDrain can send them the
	// terminal shutdown event; named brokers live in watches.
	liveStreams map[*stream.Broker]struct{}

	requests    *metrics.CounterVec
	latency     *metrics.HistogramVec
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
		Envelope:    NewEnvelope("server", cfg.TraceCapacity, writeTimeout),
		cfg:         cfg,
		reg:         metrics.NewRegistry(),
		profiles:    xmem.NewProfiles(profileSource),
		watches:     map[string]*stream.Broker{},
		liveStreams: map[*stream.Broker]struct{}{},
	}
	s.Faults = cfg.FaultInjector
	s.OnDrain = s.endStreams
	s.Drained = func(route string) { s.admissions.With(route, "drained").Inc() }
	s.Finished = func(route string, status int, w time.Duration) {
		s.requests.With(route, strconv.Itoa(status)).Inc()
		s.latency.With(route).Observe(w.Seconds())
	}
	if cfg.RunnerTTL > 0 {
		cfg.SimRunner.SetTTL(cfg.RunnerTTL)
	}
	if cfg.LimitCeiling > 0 {
		s.limiter = limit.New(limit.Config{
			Ceiling:      cfg.LimitCeiling,
			MaxQueue:     cfg.LimitQueue,
			QueueTimeout: cfg.LimitQueueTimeout,
		})
	}
	if cfg.MaxStreamClients > 0 {
		s.streams = limit.New(limit.Config{Ceiling: float64(cfg.MaxStreamClients), MaxQueue: -1})
	}
	// The brownout controller rides on the limiter: its pressure signal is
	// what the limiter holds and queues, so without admission control there
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
	s.cacheEvents = s.reg.CounterVec("llserved_cache_events_total",
		"Cache lookups by cache and outcome.", "cache", "event")
	s.streamSubs = s.reg.GaugeVec("llserved_stream_subscribers",
		"Subscribers currently attached to a watch stream.", "stream")
	s.streamEvents = s.reg.CounterVec("llserved_stream_events_total",
		"Events published to a watch stream.", "stream")
	s.streamDropped = s.reg.CounterVec("llserved_stream_dropped_total",
		"Events dropped (oldest-first) on slow watch subscribers.", "stream")
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
			"The brownout controller's input: (inflight+queued) / ceiling.",
			s.pressure)
	}
	// The simulation spine's own instrumentation: every simulation the
	// server runs bottoms out in its runner, so the runner's cache and
	// occupancy telemetry belong on the service's scrape page.
	cfg.SimRunner.Register(s.reg, "llserved_runner")
	// The envelope's in-flight count, its n_avg, the drain flag and the
	// per-stage decomposition: λ, W and n_avg for every traced stage, the
	// same busy-seconds-over-uptime construction as the runner's occupancy
	// gauge — so llserved_trace_stage_navg{stage="sim"} and
	// llserved_runner_littles_occupancy must agree.
	s.Envelope.Register(s.reg, "llserved")
	s.reg.Derived("llserved_faults_enabled",
		"1 when the fault-injection layer is evaluating rules, 0 when it is a no-op.",
		func() float64 {
			if s.Faults.Enabled() {
				return 1
			}
			return 0
		})
	s.reg.DerivedCounter("llserved_faults_injected_total",
		"Faults fired across every instrumented site since the injector was configured.",
		s.Faults.FiredTotal)
	if s.streams != nil {
		s.reg.Derived("llserved_stream_clients",
			"Live /v1/watch connections admitted by the stream limiter (ceiling 64).",
			func() float64 { return float64(s.streams.Snapshot().InFlight) })
		s.reg.DerivedCounter("llserved_stream_denied_total",
			"/v1/watch connections shed at the stream limiter's ceiling.",
			func() uint64 { return s.streams.Snapshot().Shed })
	}

	s.mux = http.NewServeMux()
	s.mux.Handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	s.mux.Handle("GET /v1/platforms", s.route("platforms", s.limiter, s.handlePlatforms))
	s.mux.Handle("POST /v1/characterize", s.route("characterize", s.limiter, s.handleCharacterize))
	s.mux.Handle("POST /v1/analyze", s.route("analyze", s.limiter, s.handleAnalyze))
	s.mux.Handle("POST /v1/analyze/batch", s.route("analyze_batch", s.limiter, s.handleAnalyzeBatch))
	s.mux.Handle("POST /v1/advise", s.route("advise", s.limiter, s.handleAdvise))
	s.mux.Handle("POST /v1/tune", s.route("tune", s.limiter, s.handleTune))
	s.mux.Handle("GET /v1/tables/{id}", s.route("tables", s.limiter, s.handleTable))
	s.mux.Handle("POST /v1/watch", s.route("watch", s.streams, s.handleWatch))
	s.mux.Handle("GET /v1/watch/{stream}", s.route("watch_subscribe", s.streams, s.handleWatchSubscribe))
	// The faults admin endpoints sit outside the admission controller on
	// purpose: during a chaos run the limiter may be shedding everything,
	// and the kill switch must still answer.
	s.mux.Handle("GET /v1/faults", http.HandlerFunc(s.handleFaultsGet))
	s.mux.Handle("POST /v1/faults", s.Admin(s.handleFaultsPost))
	// The trace endpoints likewise bypass the limiter and the tracer: the
	// tool for diagnosing overload must answer during overload, and a trace
	// of fetching a trace is noise. The single-trace lookup stays alive at
	// every brownout rung for the same reason; only the tail stream
	// (long-lived, non-critical) sheds at B3 — handleTraces checks itself.
	s.mux.Handle("GET /v1/trace/{id}", http.HandlerFunc(s.ServeTrace))
	s.mux.Handle("GET /v1/traces", s.Admin(s.handleTraces))
	// The brownout admin surface is admin-tier like /v1/faults: reading or
	// pinning the ladder must work while the ladder is shedding.
	s.mux.Handle("GET /v1/brownout", s.Admin(s.handleBrownoutGet))
	s.mux.Handle("POST /v1/brownout", s.Admin(s.handleBrownoutPost))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry serving /metrics.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// ---- profile plumbing ----

// profile returns the platform's bandwidth→latency curve from the server's
// once-per-platform Profiles, recording hit/miss metrics.
func (s *Server) profile(ctx context.Context, p *platform.Platform) (*queueing.Curve, bool, error) {
	curve, hit, err := s.profiles.Get(ctx, p)
	event := "miss"
	if hit {
		event = "hit"
	}
	s.cacheEvents.With("profile", event).Inc()
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

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthzResponse{Status: "ok", Version: cli.Version()}
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
	if s.streams != nil {
		h.StreamClients = s.streams.Snapshot().InFlight
	}
	// Always 200: this is liveness plus telemetry, not a gate — the proxy's
	// prober reads the body to weigh a drowning backend, existing checks
	// keep their plain-200 contract (and "ok" still appears in the body).
	s.WriteJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	HardenHeaders(w.Header(), "text/plain; version=0.0.4", false)
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
	s.WriteJSON(w, http.StatusOK, out)
	return nil
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) error {
	body, err := ReadBody(r)
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
	s.WriteJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) error {
	body, err := ReadBody(r)
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
		SimRunner:       s.cfg.SimRunner,
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
	s.WriteJSON(w, http.StatusOK, resp)
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
	// Rendered from the runner on every request: its results, not a copy
	// of the table, are what -runner-ttl expires.
	tab, err := experiments.NewRunner(experiments.Options{
		Scale:     scale,
		Workers:   s.cfg.Workers,
		Platforms: s.cfg.Platforms,
		SimRunner: s.cfg.SimRunner,
		ProfileFor: func(p *platform.Platform) (*queueing.Curve, error) {
			curve, _, err := s.profile(r.Context(), p)
			return curve, err
		},
	}).TableContext(r.Context(), id)
	if err != nil {
		return err
	}
	resp := TableResponse{ID: tab.ID, Workload: tab.Workload, Routine: tab.Routine, Scale: scale}
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
	s.WriteJSON(w, http.StatusOK, resp)
	return nil
}
