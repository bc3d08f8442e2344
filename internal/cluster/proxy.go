// Package cluster is the Little's-Law-aware scale-out tier: a reverse
// proxy sharding /v1/* traffic across N llserved backends. Routing is an
// algebra of two terms:
//
//   - Affinity: requests hash by the canonical identity of their cacheable
//     work (the runner cache key for simulated analyses, the platform for
//     profile work, table×scale for tables) onto a consistent-hash ring, so
//     identical analyses revisit the backend whose caches already hold the
//     answer.
//   - Occupancy: each backend counts the forwards this proxy has in flight
//     to it (a queueing.Estimator — internal/limit's accounting, lifted to
//     the fleet). When that count at the affinity owner reaches the
//     configured ceiling, the request spills to the backend holding the
//     fewest instead: the MSHR rule, one tier up. The windowed n_avg of
//     the same count, and each backend's own probe-reported one, are
//     reported (llproxy_backend_navg, _reported_navg, /healthz), never
//     routed on.
//
// Around that core: /healthz-driven probing with a per-backend circuit
// breaker (open on consecutive transport failures, half-open trials),
// hedged requests for idempotent GETs, stream-pinned routing for
// /v1/watch/{stream} (every subscriber must reach the broker's owner),
// forwarding through the resilient internal/client, llproxy_* per-backend
// metrics, and two fault sites (cluster.forward, cluster.probe).
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/client"
	"littleslaw/internal/faults"
	"littleslaw/internal/metrics"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
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
	// OccupancyCeiling is the number of forwards in flight to the affinity
	// owner at which affinity is overridden and the request spills to the
	// backend with the fewest in flight (0 = 32).
	OccupancyCeiling float64
	// RateHalfLife is the half-life of the window each backend's reported
	// n_avg is averaged over (0 = queueing.DefaultHalfLife, 10s).
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
// Its request envelope (drain, in-flight count, traces) is llserved's.
type Proxy struct {
	*service.Envelope
	cfg      Config
	reg      *metrics.Registry
	faults   *faults.Injector
	ring     *Ring
	backends map[string]*Backend
	order    []*Backend // stable name order, for deterministic iteration
	mux      *http.ServeMux

	requests         *metrics.CounterVec
	latency          *metrics.HistogramVec
	hedges           *metrics.Counter
	failovers        *metrics.Counter
	overrides        *metrics.Counter
	degradedReroutes *metrics.Counter
	noBackend        *metrics.Counter
	probeFailures    *metrics.CounterVec
	streamClients    *metrics.GaugeVec

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
		Envelope: service.NewEnvelope("proxy", cfg.TraceCapacity, 0),
		cfg:      cfg,
		reg:      cfg.Registry,
		faults:   cfg.FaultInjector,
		backends: make(map[string]*Backend, len(cfg.Backends)),
		stop:     make(chan struct{}),
	}
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
	// The envelope's in-flight count, its n_avg, the drain flag, and the
	// per-stage decomposition of the proxy's own W: route selection,
	// forward attempts, hedge/failover markers.
	p.Envelope.Register(p.reg, "llproxy")
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
	p.mux.Handle("POST /v1/watch", p.Wrap("watch", p.handleWatchPost))
	p.mux.Handle("GET /v1/watch/{stream}", p.Wrap("watch_subscribe", p.handleWatchSubscribe))
	p.mux.Handle("GET /v1/faults", p.Admin(p.handleFaultsFanout))
	p.mux.Handle("POST /v1/faults", p.Admin(p.handleFaultsFanout))
	// The proxy's own trace ring — forward/route/hedge spans, not the
	// backends' (each llserved serves its own /v1/trace; the
	// X-Backend-Trace-Id response header links the two tiers).
	p.mux.Handle("GET /v1/trace/{id}", http.HandlerFunc(p.ServeTrace))
	p.mux.Handle("GET /v1/traces", p.Admin(p.ServeTraceTail))
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
// brownout rung and draining flag steer routing, and its limiter n_avg is
// reported (llproxy_backend_reported_navg, /healthz reported_navg).
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
