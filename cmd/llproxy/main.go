// Command llproxy is the Little's-Law-aware scale-out tier: a reverse
// proxy sharding /v1/* across llserved backends. Requests route by cache
// affinity — a consistent hash of the canonical analysis identity, so
// identical work revisits the backend whose runner LRU already holds the
// result — and spill to the backend with the fewest forwards in flight when
// the affinity owner has the occupancy ceiling's worth in flight (their
// windowed mean n_avg is reported, not routed on). Backends are health-checked
// via /healthz behind per-backend circuit breakers; idempotent GETs are
// hedged. Each backend gets one attempt per request: a transport error or a
// retryable status (429, 500, 502, 503, 504) fails over to the next
// candidate, and that failover is the proxy's only retry. An in-place retry
// would wait out the backend's Retry-After and count that wait as the
// owner's occupancy, the signal requests are routed on.
//
// Usage:
//
//	llproxy -backends http://h1:8080,http://h2:8080,http://h3:8080
//	llproxy -addr :8000 -occupancy-ceiling 16    # spill earlier
//	llproxy -hedge-delay 100ms                   # hedge GETs sooner (negative disables)
//	llproxy -probe-interval 1s                   # faster failure detection
//	llproxy -faults 'seed=1;cluster.forward=latency:0.1:50ms'
//
// Endpoints mirror llserved's /v1/* surface, plus:
//
//	GET /healthz        per-backend breaker state, health and measured occupancy
//	GET /metrics        llproxy_* per-backend metrics (requests, breaker state,
//	                    measured n_avg, hedges, failovers)
//	GET /v1/trace/{id}  the proxy's own waterfall for one forwarded request
//	GET /v1/traces      NDJSON tail of the proxy's finished traces
//
// Forwarded responses carry the proxy's X-Trace-Id/X-Trace-Summary plus
// X-Backend-Trace-Id, the backend's own trace id for its /v1/trace ring.
//
// /v1/faults fans out to every backend so one call arms or disarms chaos
// across the fleet. The probe loop also reads each backend's brownout mode
// and draining flag from its /healthz body: draining backends stop
// receiving traffic before their listeners close (rolling restarts lose
// nothing), and backends degraded past B2 yield their affinity to
// full-fidelity peers while any exist. X-Brownout-Mode and X-Degraded
// response headers relay through untouched. Shutdown is graceful and
// drain-aware: SIGINT/SIGTERM flips the proxy's own /healthz to
// "draining", sheds new forwards with 503 + Retry-After, waits up to
// -drain-timeout for in-flight requests with the listener open, then
// closes.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"littleslaw/internal/buildinfo"
	"littleslaw/internal/cluster"
	"littleslaw/internal/debugmux"
	"littleslaw/internal/faults"
)

func main() {
	addr := flag.String("addr", ":8000", "listen address")
	backends := flag.String("backends", "", "comma-separated llserved base URLs (required)")
	ceiling := flag.Float64("occupancy-ceiling", 32, "forwards in flight to the affinity owner at which affinity is overridden and requests spill to the backend with the fewest in flight")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "background /healthz probe spacing (negative disables probing)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe deadline")
	breakerFailures := flag.Int("breaker-failures", 3, "consecutive transport failures that open a backend's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker rejects before a half-open trial")
	hedgeDelay := flag.Duration("hedge-delay", 250*time.Millisecond, "how long an idempotent GET waits before racing a second backend (negative disables hedging)")
	clientTimeout := flag.Duration("client-timeout", 10*time.Second, "deadline of one forward to one backend (a timed-out forward fails over to the next)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server read timeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server keep-alive idle timeout")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long to keep the listener open in draining mode (healthz reports draining, new forwards shed 503) before closing it")
	faultSpec := flag.String("faults", "", "fault-injection spec for the proxy's own sites, e.g. 'seed=1;cluster.forward=error:0.1'")
	traceCapacity := flag.Int("trace-capacity", 0, "finished forward traces retained for GET /v1/trace/{id} (0 = 256)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this loopback admin address (e.g. "+debugmux.DefaultAddr+"; empty = disabled)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "llproxy")
		return
	}
	if *backends == "" {
		log.Fatalf("llproxy: -backends is required (comma-separated llserved URLs)")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if *faultSpec != "" {
		fseed, rules, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatalf("llproxy: -faults: %v", err)
		}
		if err := faults.Global().Configure(fseed, rules); err != nil {
			log.Fatalf("llproxy: -faults: %v", err)
		}
		log.Printf("llproxy: fault injection armed (%s)", faults.FormatSpec(fseed, rules))
	}

	p, err := cluster.New(cluster.Config{
		Backends:         urls,
		OccupancyCeiling: *ceiling,
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		BreakerFailures:  *breakerFailures,
		BreakerCooldown:  *breakerCooldown,
		HedgeDelay:       *hedgeDelay,
		ClientTimeout:    *clientTimeout,
		TraceCapacity:    *traceCapacity,
	})
	if err != nil {
		log.Fatalf("llproxy: %v", err)
	}
	p.Start()
	defer p.Close()

	if *pprofAddr != "" {
		got, closePprof, err := debugmux.Serve(*pprofAddr)
		if err != nil {
			log.Fatalf("llproxy: -pprof: %v", err)
		}
		defer closePprof()
		log.Printf("llproxy: pprof on http://%s/debug/pprof/", got)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// No http.Server WriteTimeout: proxied /v1/watch streams are long-lived.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           p.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("llproxy: listening on %s, sharding across %s", *addr, strings.Join(p.Backends(), ", "))

	select {
	case err := <-errc:
		log.Fatalf("llproxy: %v", err)
	case <-ctx.Done():
	}

	// Drain first, listener open: the prober sees "draining" and reroutes
	// before this process stops answering.
	logf := func(format string, args ...any) { log.Printf("llproxy: "+format, args...) }
	if err := p.DrainAndShutdown(httpSrv, *drainTimeout, *shutdownGrace, logf); err != nil {
		log.Printf("llproxy: shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("llproxy: bye")
}
