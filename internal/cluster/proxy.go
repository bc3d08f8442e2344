// Package cluster is the Little's-Law-aware scale-out tier: a reverse
// proxy sharding /v1/* traffic across N llserved backends. Routing is an
// algebra of two terms:
//
//   - Affinity: requests hash by the canonical identity of their cacheable
//     work (the runner cache key for simulated analyses, the platform for
//     profile work, table×scale for tables) onto a consistent-hash ring, so
//     identical analyses revisit the backend whose caches already hold the
//     answer.
//   - Occupancy: each backend carries the measured n_avg of the forwards
//     outstanding to it (a queueing.Estimator — internal/limit's
//     accounting, lifted to the fleet). When the affinity owner's load
//     reaches the configured ceiling, the request spills to the
//     least-loaded backend instead: Equation 1 as the spillover signal.
//
// Around that core: /healthz-driven probing with a per-backend circuit
// breaker (open on consecutive transport failures, half-open trials),
// hedged requests for idempotent GETs, stream-pinned routing for
// /v1/watch/{stream} (every subscriber must reach the broker's owner),
// forwarding through the resilient internal/client, llproxy_* per-backend
// metrics, and two fault sites (cluster.forward, cluster.probe).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/buildinfo"
	"littleslaw/internal/client"
	"littleslaw/internal/faults"
	"littleslaw/internal/limit"
	"littleslaw/internal/metrics"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
	"littleslaw/internal/stream"
	"littleslaw/internal/trace"
)

// The cluster tier's fault-injection sites: ForwardFaultSite is evaluated
// once per proxied request (unary and stream) before any backend is
// contacted; ProbeFaultSite once per health probe.
const (
	ForwardFaultSite = "cluster.forward"
	ProbeFaultSite   = "cluster.probe"
)

// Config tunes a Proxy. Zero values take the documented defaults.
type Config struct {
	// Backends are the llserved base URLs to shard across (required,
	// distinct hosts).
	Backends []string
	// OccupancyCeiling is the per-backend load — forwards in flight, their
	// windowed mean n_avg, or the backend's own reported n_avg, whichever
	// is highest — at which affinity is overridden and the request spills
	// to the least-loaded backend (0 = 32).
	OccupancyCeiling float64
	// RateHalfLife is the half-life of the window each backend's n_avg is
	// averaged over (0 = queueing.DefaultHalfLife, 10s).
	RateHalfLife time.Duration
	// ProbeInterval spaces background /healthz probes (0 = 2s; negative
	// disables the background prober — tests drive ProbeAll directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (0 = 1s).
	ProbeTimeout time.Duration
	// BreakerFailures is the consecutive transport-failure count that opens
	// a backend's breaker (0 = 3).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker rejects before granting a
	// half-open trial (0 = 5s).
	BreakerCooldown time.Duration
	// HedgeDelay is how long an idempotent GET waits on its primary before
	// opening a second lane to the next candidate (0 = 250ms; negative
	// disables hedging).
	HedgeDelay time.Duration
	// VNodes is the consistent-hash ring's per-backend virtual-node count
	// (0 = DefaultVNodes).
	VNodes int
	// ClientTimeout bounds each forwarded attempt (0 = 10s).
	ClientTimeout time.Duration
	// ClientMaxAttempts caps attempts per forwarded request, first try
	// included (0 = 2: one quick retry, then failover to another backend).
	ClientMaxAttempts int
	// Seed makes backend-client backoff jitter deterministic (0 = clock).
	Seed int64
	// TraceCapacity bounds the ring of finished forward traces served by
	// GET /v1/trace/{id} and GET /v1/traces (0 = trace.DefaultCapacity).
	TraceCapacity int
	// Registry receives the proxy metrics (nil = a fresh registry).
	Registry *metrics.Registry
	// FaultInjector backs the cluster.* sites (nil = faults.Global()).
	FaultInjector *faults.Injector
	// Now is the clock (tests; nil = time.Now).
	Now func() time.Time
}

func (c *Config) normalize() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("cluster: at least one backend is required")
	}
	if c.OccupancyCeiling <= 0 {
		c.OccupancyCeiling = 32
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 250 * time.Millisecond
	}
	if c.ClientTimeout <= 0 {
		c.ClientTimeout = 10 * time.Second
	}
	if c.ClientMaxAttempts <= 0 {
		c.ClientMaxAttempts = 2
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.FaultInjector == nil {
		c.FaultInjector = faults.Global()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// Proxy is the scale-out tier. Construct with New; Handler is safe for
// concurrent use. Start launches the background prober, Close stops it.
type Proxy struct {
	cfg      Config
	reg      *metrics.Registry
	faults   *faults.Injector
	ring     *Ring
	backends map[string]*Backend
	order    []*Backend // stable name order, for deterministic iteration
	mux      *http.ServeMux

	traces      *trace.Sink
	traceBroker *stream.BrokerOf[trace.Record]

	requests         *metrics.CounterVec
	latency          *metrics.HistogramVec
	occupancy        *metrics.Occupancy // requests inside the proxy and their n_avg
	hedges           *metrics.Counter
	failovers        *metrics.Counter
	overrides        *metrics.Counter
	degradedReroutes *metrics.Counter
	noBackend        *metrics.Counter
	probeFailures    *metrics.CounterVec
	streamClients    *metrics.GaugeVec

	draining  atomic.Bool
	drainOnce sync.Once

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Proxy over cfg.Backends.
func New(cfg Config) (*Proxy, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:       cfg,
		reg:       cfg.Registry,
		faults:    cfg.FaultInjector,
		backends:  make(map[string]*Backend, len(cfg.Backends)),
		stop:      make(chan struct{}),
		occupancy: metrics.NewOccupancy(),
	}
	p.traces = trace.NewSink(cfg.TraceCapacity)
	p.traceBroker = stream.NewBrokerOf[trace.Record](cfg.TraceCapacity,
		func(rec *trace.Record, seq int) { rec.Seq = seq })
	p.traces.OnFinish = func(t *trace.Trace) { p.traceBroker.Publish(trace.Record{Trace: t.View()}) }
	names := make([]string, 0, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q: want an absolute URL like http://host:port", raw)
		}
		name := u.Host
		if _, dup := p.backends[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %q", name)
		}
		seed := cfg.Seed
		if seed != 0 {
			seed += int64(i) // distinct jitter streams per backend
		}
		cl, err := client.New(client.Config{
			BaseURL:     raw,
			Timeout:     cfg.ClientTimeout,
			MaxAttempts: cfg.ClientMaxAttempts,
			Seed:        seed,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: backend %q: %w", raw, err)
		}
		b := &Backend{
			Name:     name,
			URL:      strings.TrimRight(raw, "/"),
			cl:       cl,
			httpc:    &http.Client{},
			est:      queueing.NewEstimator(cfg.RateHalfLife, cfg.Now()),
			maxFails: cfg.BreakerFailures,
			cooldown: cfg.BreakerCooldown,
			healthy:  true, // innocent until a probe or forward proves otherwise
		}
		p.backends[name] = b
		names = append(names, name)
	}
	sort.Strings(names)
	for _, n := range names {
		p.order = append(p.order, p.backends[n])
	}
	p.ring = NewRing(names, cfg.VNodes)
	p.registerMetrics()
	p.routes()
	return p, nil
}

func (p *Proxy) registerMetrics() {
	p.requests = p.reg.CounterVec("llproxy_requests_total",
		"Forwarded requests by backend and outcome (ok, shed, client_error, server_error, error, canceled, stream).",
		"backend", "outcome")
	p.latency = p.reg.HistogramVec("llproxy_request_seconds",
		"Forwarded unary request latency by backend (transport errors excluded).", nil, "backend")
	p.reg.Derived("llproxy_inflight_requests",
		"Requests currently inside the proxy (directly sampled occupancy).",
		func() float64 { return float64(p.occupancy.InFlight()) })
	p.hedges = p.reg.Counter("llproxy_hedges_total",
		"Secondary lanes opened for idempotent GETs whose primary outlived the hedge delay.")
	p.failovers = p.reg.Counter("llproxy_failovers_total",
		"Requests retried against another backend after a failure or retryable status.")
	p.overrides = p.reg.Counter("llproxy_affinity_overrides_total",
		"Requests routed away from their affinity owner because its load reached the occupancy ceiling.")
	p.degradedReroutes = p.reg.Counter("llproxy_degraded_reroutes_total",
		"Requests routed away from their affinity owner because it reported brownout B2+ while a full-fidelity backend was available.")
	p.noBackend = p.reg.Counter("llproxy_no_backend_total",
		"Requests shed with 503 because every backend's breaker was open.")
	p.probeFailures = p.reg.CounterVec("llproxy_probe_failures_total",
		"Failed /healthz probes by backend.", "backend")
	p.streamClients = p.reg.GaugeVec("llproxy_stream_clients",
		"Live proxied /v1/watch connections by backend.", "backend")
	perBackend := func(name, help string, value func(*Backend) float64) {
		p.reg.DerivedVec(name, help, "backend", func() map[string]float64 {
			m := make(map[string]float64, len(p.order))
			for _, b := range p.order {
				m[b.Name] = value(b)
			}
			return m
		})
	}
	oneIf := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	perBackend("llproxy_backend_navg",
		"Measured per-backend occupancy: windowed time-average of the forwards in flight to it.",
		func(b *Backend) float64 { return b.navg(p.cfg.Now()) })
	perBackend("llproxy_backend_reported_navg",
		"Each backend's own limiter n_avg from its last /healthz probe body.",
		func(b *Backend) float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.reported
		})
	perBackend("llproxy_backend_up",
		"1 when the backend's last probe or forward succeeded, 0 when it is considered down.",
		func(b *Backend) float64 { _, healthy := b.snapshotState(); return oneIf(healthy) })
	perBackend("llproxy_breaker_state",
		"Per-backend circuit-breaker state: 0 closed, 1 open, 2 half-open.",
		func(b *Backend) float64 { st, _ := b.snapshotState(); return float64(st) })
	perBackend("llproxy_backend_brownout_mode",
		"Each backend's brownout rung from its last /healthz probe (0 = full service, 4 = full shed).",
		func(b *Backend) float64 { mode, _ := b.degradation(); return float64(mode) })
	perBackend("llproxy_backend_draining",
		"1 when the backend's last probe reported it draining for shutdown.",
		func(b *Backend) float64 { _, draining := b.degradation(); return oneIf(draining) })
	p.reg.Derived("llproxy_draining",
		"1 once BeginDrain has been called on the proxy itself.",
		func() float64 { return oneIf(p.draining.Load()) })
	p.reg.Derived("llproxy_littles_law_concurrency",
		"The proxy's own n_avg: windowed time-average of llproxy_inflight_requests.",
		p.occupancy.NAvg)
	// Per-stage decomposition of the proxy's own W: route selection,
	// forward attempts, hedge/failover markers.
	p.traces.Register(p.reg, "llproxy_trace")
}

func (p *Proxy) routes() {
	p.mux = http.NewServeMux()
	p.mux.Handle("GET /healthz", http.HandlerFunc(p.handleHealthz))
	p.mux.Handle("GET /metrics", http.HandlerFunc(p.handleMetrics))
	p.mux.Handle("GET /v1/platforms", p.unary("platforms", true))
	p.mux.Handle("GET /v1/tables/{id}", p.unary("tables", true))
	p.mux.Handle("POST /v1/characterize", p.unary("characterize", false))
	p.mux.Handle("POST /v1/analyze", p.unary("analyze", false))
	p.mux.Handle("POST /v1/analyze/batch", p.unary("analyze_batch", false))
	p.mux.Handle("POST /v1/advise", p.unary("advise", false))
	p.mux.Handle("POST /v1/tune", p.unary("tune", false))
	p.mux.Handle("POST /v1/watch", http.HandlerFunc(p.handleWatchPost))
	p.mux.Handle("GET /v1/watch/{stream}", http.HandlerFunc(p.handleWatchSubscribe))
	p.mux.Handle("GET /v1/faults", http.HandlerFunc(p.handleFaultsFanout))
	p.mux.Handle("POST /v1/faults", http.HandlerFunc(p.handleFaultsFanout))
	// The proxy's own trace ring — forward/route/hedge spans, not the
	// backends' (each llserved serves its own /v1/trace; the
	// X-Backend-Trace-Id response header links the two tiers).
	p.mux.Handle("GET /v1/trace/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		service.ServeTrace(w, r, p.traces)
	}))
	p.mux.Handle("GET /v1/traces", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		service.ServeTraceTail(w, r, p.traceBroker, nil)
	}))
}

// Handler returns the proxy's HTTP handler.
func (p *Proxy) Handler() http.Handler { return p.mux }

// Registry returns the metrics registry serving /metrics.
func (p *Proxy) Registry() *metrics.Registry { return p.reg }

// Backends returns the backend names in stable order.
func (p *Proxy) Backends() []string {
	names := make([]string, len(p.order))
	for i, b := range p.order {
		names[i] = b.Name
	}
	return names
}

// Start launches the background prober (a no-op when ProbeInterval < 0).
func (p *Proxy) Start() {
	if p.cfg.ProbeInterval < 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.ProbeAll(context.Background())
			}
		}
	}()
}

// Close stops the background prober and waits for it.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// BeginDrain flips the proxy into its terminal mode: /healthz reports
// "draining" (an upstream balancer stops sending here), every new forward
// — unary and stream — sheds with 503 + Retry-After, and the proxy's own
// trace tail receives a terminal "shutdown" record before its broker
// closes. Idempotent. The caller then polls InFlight to zero (up to its
// drain deadline) before closing the listener; relayed streams end when
// their clients or backends do, so a drain deadline still bounds them.
func (p *Proxy) BeginDrain() {
	p.drainOnce.Do(func() {
		p.draining.Store(true)
		p.traceBroker.Publish(trace.Record{Terminal: "shutdown"})
		p.traceBroker.Close()
	})
}

// Draining reports whether BeginDrain has been called.
func (p *Proxy) Draining() bool { return p.draining.Load() }

// InFlight returns the number of requests currently inside the proxy —
// the quantity a draining main loop polls to zero.
func (p *Proxy) InFlight() int64 { return p.occupancy.InFlight() }

// shedDraining answers a request with 503 + Retry-After when the proxy is
// draining; true means the request was answered and must not be forwarded.
func (p *Proxy) shedDraining(w http.ResponseWriter) bool {
	if !p.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	p.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("proxy is draining for shutdown"))
	return true
}

// ProbeAll health-checks every backend once, concurrently.
func (p *Proxy) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range p.order {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// probe is one /healthz check: a single unretried GET under ProbeTimeout.
// Any 200 closes the breaker (up, even if drowning); the JSON body's
// limiter n_avg feeds the routing signal so a backend overloaded by
// traffic this proxy cannot see still repels spillover.
func (p *Proxy) probe(ctx context.Context, b *Backend) {
	switch f := p.faults.Eval(ProbeFaultSite); f.Kind {
	case faults.KindLatency:
		f.Sleep(ctx)
	case faults.KindError:
		p.probeFailures.With(b.Name).Inc()
		b.failure(p.cfg.Now())
		return
	}
	pctx, cancel := context.WithTimeout(ctx, p.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.URL+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := b.httpc.Do(req)
	if err != nil {
		p.probeFailures.With(b.Name).Inc()
		b.failure(p.cfg.Now())
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.probeFailures.With(b.Name).Inc()
		b.failure(p.cfg.Now())
		return
	}
	reported := 0.0
	mode := brownout.B0
	draining := false
	var h service.HealthzResponse
	// Tolerate non-JSON bodies: an older backend's plain "ok" is still up.
	if json.Unmarshal(body, &h) == nil {
		if h.LimiterNAvg != nil {
			reported = *h.LimiterNAvg
		}
		if h.BrownoutMode != "" {
			if m, err := brownout.Parse(h.BrownoutMode); err == nil {
				mode = m
			}
		}
		draining = h.Draining || h.Status == "draining"
	}
	b.probeOK(reported, mode, draining)
}

// ---- routing ----

// candidates returns the backends that may serve a request with the given
// affinity key, in preference order: the ring owner first (unless its
// load has reached the occupancy ceiling, or it has browned out past B2
// while a full-fidelity backend is available, and the request is not
// pinned), then the remaining eligible backends — non-degraded before
// degraded, ascending load within each class. Backends whose last probe
// reported draining are skipped entirely while any alternative exists:
// their listener is about to close. Pinned requests (streams) always put
// the owner first — a subscriber must reach the broker's host — and only
// breaker or drain ineligibility reroutes them.
//
// The decision string names which rule chose the head candidate — "owner"
// (affinity), "pinned", "spill" (owner over the occupancy ceiling),
// "degraded" (owner browned out, fuller backend preferred), "load" (no
// affinity identity) — and becomes the trace's route span.
func (p *Proxy) candidates(key string, pinned bool) ([]*Backend, string) {
	now := p.cfg.Now()
	type cand struct {
		b        *Backend
		load     float64
		degraded bool
		draining bool
	}
	elig := make([]cand, 0, len(p.order))
	drainingN := 0
	for _, b := range p.order {
		if !b.allow(now) {
			continue
		}
		mode, draining := b.degradation()
		if draining {
			drainingN++
		}
		// B2+ means the backend would answer from the analytic model (or
		// shed outright) — worth routing around; B1 still serves full or
		// stale-but-real simulation results and keeps its affinity value.
		elig = append(elig, cand{b, b.load(now), mode >= brownout.B2, draining})
	}
	if len(elig) == 0 {
		return nil, ""
	}
	if drainingN > 0 && drainingN < len(elig) {
		kept := elig[:0]
		for _, c := range elig {
			if !c.draining {
				kept = append(kept, c)
			}
		}
		elig = kept
	}
	sort.SliceStable(elig, func(i, j int) bool {
		if elig[i].degraded != elig[j].degraded {
			return !elig[i].degraded
		}
		return elig[i].load < elig[j].load
	})
	out := make([]*Backend, len(elig))
	for i, c := range elig {
		out[i] = c.b
	}
	if key == "" {
		return out, "load"
	}
	owner, ok := p.ring.OwnerWhere(key, func(name string) bool {
		for _, c := range elig {
			if c.b.Name == name {
				return true
			}
		}
		return false
	})
	if !ok {
		return out, "load"
	}
	oi := 0
	for i, c := range elig {
		if c.b.Name == owner {
			oi = i
			break
		}
	}
	if !pinned && elig[oi].degraded && !elig[0].degraded {
		// The owner would answer approximately; a warm cache is worth less
		// than a full-fidelity answer elsewhere. The owner stays in the
		// list as a failover candidate — an approximate answer still beats
		// none.
		p.degradedReroutes.Inc()
		return out, "degraded"
	}
	if !pinned && elig[oi].load >= p.cfg.OccupancyCeiling {
		// Join-least-n_avg spillover: the owner is drowning, the sorted
		// order already leads with the least-loaded backend; the owner
		// stays available as a later failover candidate.
		if oi != 0 {
			p.overrides.Inc()
		}
		return out, "spill"
	}
	if oi != 0 {
		b := out[oi]
		copy(out[1:oi+1], out[:oi])
		out[0] = b
	}
	if pinned {
		return out, "pinned"
	}
	return out, "owner"
}

// affinityKey derives the routing identity for a unary route from the
// request. Undecodable or identity-free requests return "": routed by
// load, and the backend produces the proper error.
func affinityKey(route string, r *http.Request, body []byte) string {
	switch route {
	case "analyze", "advise":
		if req, err := service.DecodeAnalyzeRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "analyze_batch":
		if req, err := service.DecodeBatchAnalyzeRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "characterize":
		if req, err := service.DecodeCharacterizeRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "tune":
		if req, err := service.DecodeTuneRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "tables":
		scale := 1.0
		if v := r.URL.Query().Get("scale"); v != "" {
			fmt.Sscanf(v, "%g", &scale)
		}
		if key, ok := service.TableAffinityKey(r.PathValue("id"), scale); ok {
			return key
		}
	}
	return ""
}

// ---- unary forwarding ----

// unary builds the handler for a request/response route. hedgeable GETs
// race a second backend after HedgeDelay.
func (p *Proxy) unary(route string, hedgeable bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.occupancy.Arrive()
		defer p.occupancy.Complete()
		start := time.Now()
		tr := p.traces.Start(route)
		w.Header().Set("X-Trace-Id", tr.ID())
		sw := &summaryWriter{ResponseWriter: w, tr: tr}
		defer func() {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			tr.Finish(status, time.Since(start))
			p.traces.Done(tr)
		}()
		r = r.WithContext(trace.NewContext(r.Context(), tr))
		if p.shedDraining(sw) {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(sw, r.Body, service.MaxBodyBytes))
		if err != nil {
			p.writeError(sw, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
			return
		}
		if !p.forwardFault(sw, r) {
			return
		}
		key := affinityKey(route, r, body)
		cands, decision := p.candidates(key, false)
		if len(cands) == 0 {
			p.shedNoBackend(sw)
			return
		}
		// The routing decision as a zero-duration marker span: which rule
		// won and which backend leads the candidate order.
		tr.Add("route", decision+" "+cands[0].Name, 0, 0)
		path := forwardPath(r)
		var res *client.Result
		if hedgeable && r.Method == http.MethodGet && p.cfg.HedgeDelay > 0 && len(cands) > 1 {
			res, err = p.hedged(r.Context(), cands, path)
		} else {
			res, err = p.sequential(r.Context(), cands, r.Method, path, r.Header.Get("Content-Type"), body)
		}
		if err != nil || res == nil {
			status := http.StatusBadGateway
			if r.Context().Err() != nil {
				status = http.StatusGatewayTimeout
			}
			if err == nil {
				err = fmt.Errorf("no backend produced a response")
			}
			p.writeError(sw, status, fmt.Errorf("forwarding failed: %w", err))
			return
		}
		p.respond(sw, res)
	})
}

// summaryWriter records the first status written and stamps the
// X-Trace-Summary header at that moment — the spans recorded so far —
// before headers go out.
type summaryWriter struct {
	http.ResponseWriter
	tr     *trace.Trace
	status int
}

func (w *summaryWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.ResponseWriter.Header().Set("X-Trace-Summary", w.tr.Summary())
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *summaryWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush/SetWriteDeadline, which the stream relay depends on.
func (w *summaryWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// forwardFault evaluates the cluster.forward site; false means the request
// was answered (injected error) and must not be forwarded.
func (p *Proxy) forwardFault(w http.ResponseWriter, r *http.Request) bool {
	switch f := p.faults.Eval(ForwardFaultSite); f.Kind {
	case faults.KindLatency:
		f.Sleep(r.Context())
	case faults.KindError:
		// The proxy's own transient failure: 502 with a short hint, the
		// shape a resilient client retries.
		w.Header().Set("Retry-After", "1")
		p.writeError(w, http.StatusBadGateway, f.Err())
		return false
	case faults.KindPanic:
		panic(f.PanicValue())
	}
	return true
}

func forwardPath(r *http.Request) string {
	path := r.URL.Path
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	return path
}

// failoverWorthy reports whether a status is worth trying another backend:
// the shed and transient-5xx family. Every /v1 verb is a read-only
// analysis, so re-executing elsewhere is safe.
func failoverWorthy(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// sequential walks the candidates in order until one yields a
// non-failover-worthy response; the last response (or error) is returned
// when all do.
func (p *Proxy) sequential(ctx context.Context, cands []*Backend, method, path, contentType string, body []byte) (*client.Result, error) {
	var lastRes *client.Result
	var lastErr error
	for i, b := range cands {
		if i > 0 {
			p.failovers.Inc()
			trace.Add(ctx, "failover", b.Name, 0, 0)
		}
		res, err := p.tryBackend(ctx, b, method, path, contentType, body)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		lastRes, lastErr = res, nil
		if !failoverWorthy(res.Status) {
			return res, nil
		}
	}
	return lastRes, lastErr
}

// hedged races candidates for an idempotent GET: the primary fires
// immediately, a second lane opens when the primary outlives HedgeDelay
// (or fails), and the first good response wins; losers are canceled.
func (p *Proxy) hedged(ctx context.Context, cands []*Backend, path string) (*client.Result, error) {
	type outcome struct {
		res *client.Result
		err error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, len(cands))
	next := 0
	fire := func() {
		b := cands[next]
		next++
		go func() {
			res, err := p.tryBackend(hctx, b, http.MethodGet, path, "", nil)
			ch <- outcome{res, err}
		}()
	}
	fire()
	pending := 1
	timer := time.NewTimer(p.cfg.HedgeDelay)
	defer timer.Stop()
	var last outcome
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timer.C:
			// The hedge proper: at most one speculative lane on top of the
			// primary; failures below may still walk further candidates.
			if next < len(cands) && next < 2 {
				p.hedges.Inc()
				trace.Add(ctx, "hedge", cands[next].Name, 0, 0)
				fire()
				pending++
			}
		case o := <-ch:
			pending--
			if o.err == nil && !failoverWorthy(o.res.Status) {
				return o.res, nil
			}
			last = o
			if next < len(cands) {
				p.failovers.Inc()
				trace.Add(ctx, "failover", cands[next].Name, 0, 0)
				fire()
				pending++
			} else if pending == 0 {
				return last.res, last.err
			}
		}
	}
}

// tryBackend forwards one unary request through the backend's resilient
// client, feeding the occupancy estimator, the breaker and the metrics.
func (p *Proxy) tryBackend(ctx context.Context, b *Backend, method, path, contentType string, body []byte) (*client.Result, error) {
	b.arrive(p.cfg.Now())
	begin := time.Now()
	res, err := b.cl.Do(ctx, method, path, contentType, body)
	elapsed := time.Since(begin)
	b.complete(p.cfg.Now())
	if err != nil {
		if ctx.Err() != nil {
			// A canceled hedge lane or an expired request says nothing
			// about the backend's health.
			p.requests.With(b.Name, "canceled").Inc()
			trace.Add(ctx, "forward", b.Name+" canceled", 0, elapsed)
			return nil, err
		}
		b.failure(p.cfg.Now())
		p.requests.With(b.Name, "error").Inc()
		trace.Add(ctx, "forward", b.Name+" error", 0, elapsed)
		return nil, err
	}
	// Any HTTP response — a shed, even a 500 — proves the process is alive;
	// the breaker guards against unreachable backends, not unhappy ones.
	b.success()
	p.latency.With(b.Name).Observe(elapsed.Seconds())
	p.requests.With(b.Name, outcomeOf(res.Status)).Inc()
	// Forward attempts are leaf spans with the measured wall time: hedge
	// lanes run concurrently, so a hedged trace's forward spans may sum
	// past the request's W by design (work time, not wall time).
	trace.Add(ctx, "forward", b.Name+" "+outcomeOf(res.Status), 0, elapsed)
	return res, nil
}

func outcomeOf(status int) string {
	switch {
	case status == http.StatusTooManyRequests:
		return "shed"
	case status >= 200 && status < 300:
		return "ok"
	case status >= 500:
		return "server_error"
	default:
		return "client_error"
	}
}

// respond relays the backend's final response.
func (p *Proxy) respond(w http.ResponseWriter, res *client.Result) {
	ct := res.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	h := w.Header()
	h.Set("Content-Type", ct)
	h.Set("X-Content-Type-Options", "nosniff")
	// Degradation markers relay untouched: a client behind the proxy must
	// see the same brownout honesty a direct client would.
	for _, k := range []string{"Retry-After", "Cache-Control", "X-Brownout-Mode", "X-Degraded"} {
		if v := res.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	// The backend's own trace id, relayed under a distinct name so one
	// response links both tiers' waterfalls (the proxy's X-Trace-Id is its
	// own; fetch the backend's from that backend's /v1/trace).
	if v := res.Header.Get("X-Trace-Id"); v != "" {
		h.Set("X-Backend-Trace-Id", v)
	}
	w.WriteHeader(res.Status)
	w.Write(res.Body)
}

func (p *Proxy) shedNoBackend(w http.ResponseWriter) {
	p.noBackend.Inc()
	// The cooldown is when the next half-open trial can fire; retrying
	// sooner cannot succeed.
	w.Header().Set("Retry-After", limit.RetryAfterSeconds(p.cfg.BreakerCooldown))
	p.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no healthy backends"))
}

func (p *Proxy) writeError(w http.ResponseWriter, status int, err error) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Content-Type-Options", "nosniff")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(service.ErrorResponse{Error: err.Error()})
}

// ---- streams ----

// handleWatchPost routes POST /v1/watch: named streams pin to the ring
// owner of their name (so GET /v1/watch/{stream} subscribers find the
// broker), ad-hoc streams join the least-loaded backend.
func (p *Proxy) handleWatchPost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
	if err != nil {
		p.writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	key := ""
	// A loose parse on purpose: only the stream name routes; full
	// validation is the backend's job.
	var probe struct {
		Stream string `json:"stream"`
	}
	if json.Unmarshal(body, &probe) == nil && probe.Stream != "" {
		key = service.StreamAffinityKey(probe.Stream)
	}
	p.forwardStream(w, r, "watch", key, key != "", body)
}

// handleWatchSubscribe routes GET /v1/watch/{stream} to the stream's
// pinned owner.
func (p *Proxy) handleWatchSubscribe(w http.ResponseWriter, r *http.Request) {
	key := service.StreamAffinityKey(r.PathValue("stream"))
	p.forwardStream(w, r, "watch_subscribe", key, true, nil)
}

// forwardStream proxies a long-lived NDJSON/SSE connection: raw
// passthrough with a per-chunk flush, outside the unary client (which
// buffers whole responses and retries — wrong on both counts for a
// stream). Stream lifetimes do not feed the backend's occupancy
// estimator: a healthy stream lasts as long as its client, which says
// nothing about backend load. They are accounted by llproxy_stream_clients
// (and, like every request inside the proxy, by its own in-flight gauge).
func (p *Proxy) forwardStream(w http.ResponseWriter, r *http.Request, route, key string, pinned bool, body []byte) {
	p.occupancy.Arrive()
	defer p.occupancy.Complete()
	start := time.Now()
	tr := p.traces.Start(route)
	w.Header().Set("X-Trace-Id", tr.ID())
	sw := &summaryWriter{ResponseWriter: w, tr: tr}
	w = sw
	defer func() {
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		tr.Finish(status, time.Since(start))
		p.traces.Done(tr)
	}()
	if p.shedDraining(w) {
		return
	}
	if !p.forwardFault(w, r) {
		return
	}
	cands, decision := p.candidates(key, pinned)
	if len(cands) == 0 {
		p.shedNoBackend(w)
		return
	}
	b := cands[0]
	tr.Add("route", decision+" "+b.Name, 0, 0)
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.URL+forwardPath(r), bytes.NewReader(body))
	if err != nil {
		p.writeError(w, http.StatusInternalServerError, err)
		return
	}
	for _, k := range []string{"Accept", "Content-Type"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	connStart := time.Now()
	resp, err := b.httpc.Do(req)
	if err != nil {
		if r.Context().Err() == nil {
			b.failure(p.cfg.Now())
		}
		p.requests.With(b.Name, "error").Inc()
		tr.Add("forward", b.Name+" error", 0, time.Since(connStart))
		p.writeError(w, http.StatusBadGateway, fmt.Errorf("stream to %s failed: %w", b.Name, err))
		return
	}
	defer resp.Body.Close()
	b.success()
	p.requests.With(b.Name, "stream").Inc()
	// Connection setup only: the stream's lifetime is its client's, not a
	// latency worth decomposing (mirrors the occupancy exclusion above).
	tr.Add("forward", b.Name+" stream", 0, time.Since(connStart))

	h := w.Header()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	h.Set("X-Content-Type-Options", "nosniff")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(resp.StatusCode)

	gauge := p.streamClients.With(b.Name)
	gauge.Inc()
	defer gauge.Dec()

	rc := http.NewResponseController(w)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			// Flush per chunk: events must reach the subscriber as they
			// happen, not when a relay buffer fills.
			rc.Flush()
		}
		if rerr != nil {
			return
		}
	}
}

// ---- admin and introspection ----

// handleFaultsFanout relays /v1/faults to every backend — chaos control
// must reach the whole fleet, breaker state notwithstanding (an "open"
// backend's admin plane may well be reachable even while its data plane
// misbehaves).
func (p *Proxy) handleFaultsFanout(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
	if err != nil {
		p.writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	status := http.StatusOK
	results := make(map[string]json.RawMessage, len(p.order))
	for _, b := range p.order {
		res, err := b.cl.Do(r.Context(), r.Method, "/v1/faults", r.Header.Get("Content-Type"), body)
		if err != nil {
			status = http.StatusBadGateway
			msg, _ := json.Marshal(service.ErrorResponse{Error: err.Error()})
			results[b.Name] = msg
			continue
		}
		if res.Status != http.StatusOK && status == http.StatusOK {
			status = res.Status
		}
		if json.Valid(res.Body) {
			results[b.Name] = res.Body
		} else {
			msg, _ := json.Marshal(string(res.Body))
			results[b.Name] = msg
		}
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Content-Type-Options", "nosniff")
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(results)
}

// BackendHealth is one backend's view in the proxy's /healthz body.
type BackendHealth struct {
	Name    string  `json:"name"`
	URL     string  `json:"url"`
	Healthy bool    `json:"healthy"`
	Breaker string  `json:"breaker"`
	NAvg    float64 `json:"navg"`
	// ReportedNAvg is the backend's own limiter occupancy from its last
	// probe body.
	ReportedNAvg float64 `json:"reported_navg"`
	// BrownoutMode is the backend's brownout rung from its last probe body
	// ("B0".."B4"; "B0" when the backend predates brownout).
	BrownoutMode string `json:"brownout_mode"`
	// Draining is true once the backend reported it is draining for
	// shutdown; the proxy stops routing to it.
	Draining bool `json:"draining,omitempty"`
}

// HealthResponse is the proxy's GET /healthz body.
type HealthResponse struct {
	// Status is "ok" while at least one backend accepts traffic,
	// "degraded" otherwise, "draining" once BeginDrain has been called
	// (still 200: the proxy itself is alive).
	Status   string          `json:"status"`
	Version  string          `json:"version"`
	Draining bool            `json:"draining,omitempty"`
	Backends []BackendHealth `json:"backends"`
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := p.cfg.Now()
	resp := HealthResponse{Status: "degraded", Version: buildinfo.Version()}
	for _, b := range p.order {
		st, healthy := b.snapshotState()
		if healthy {
			resp.Status = "ok"
		}
		b.mu.Lock()
		reported := b.reported
		mode, draining := b.mode, b.draining
		b.mu.Unlock()
		resp.Backends = append(resp.Backends, BackendHealth{
			Name:         b.Name,
			URL:          b.URL,
			Healthy:      healthy,
			Breaker:      st.String(),
			NAvg:         b.navg(now),
			ReportedNAvg: reported,
			BrownoutMode: mode.String(),
			Draining:     draining,
		})
	}
	if p.draining.Load() {
		// Drain wins: upstream load balancers must stop sending here even
		// while the backends themselves are fine.
		resp.Status = "draining"
		resp.Draining = true
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4")
	h.Set("X-Content-Type-Options", "nosniff")
	p.reg.WritePrometheus(w)
}
