// Command llserved serves the Little's-Law analysis pipeline as an HTTP
// JSON API: platform characterization, the Equation-2 metric, the Figure-1
// recipe, the autotune loop and the paper tables, with profile caching
// (tables render from runner entries on every request) and
// Prometheus-style metrics.
//
// Usage:
//
//	llserved                         # serve on :8080, honest X-Mem profiles
//	llserved -addr :9000             # another port
//	llserved -paper-profiles         # published anchor curves (instant startup)
//	llserved -warm                   # pre-characterize all platforms at startup
//	llserved -timeout 2m             # default per-request deadline
//	llserved -workers 8              # per-request simulation concurrency
//	llserved -limit-ceiling 32       # Little's-Law admission ceiling
//	llserved -limit-ceiling -1       # disable admission control
//	llserved -faults 'seed=42;handler.*=error:0.2'   # arm fault injection
//
// Endpoints:
//
//	GET  /healthz                    liveness
//	GET  /metrics                    Prometheus text metrics (including the
//	                                 server's own Little's-Law concurrency)
//	GET  /v1/platforms               the paper's machines
//	POST /v1/characterize            {"platform":"KNL"} → bandwidth→latency profile
//	POST /v1/analyze                 workload run or direct measurement → MLP report
//	POST /v1/analyze/batch           up to 16 analyses in one request
//	POST /v1/advise                  … → report plus Figure-1 recipe verdicts
//	POST /v1/tune                    … → autotune session
//	GET  /v1/tables/{IV..IX}?scale=  regenerated paper table (also T4..T9)
//	POST /v1/watch                   stream monitor (NDJSON / SSE)
//	GET  /v1/watch/{stream}          subscribe to a named stream
//	GET  /v1/faults                  fault-injection state and tallies
//	POST /v1/faults                  reconfigure or toggle fault injection
//	GET  /v1/trace/{id}              one request's latency waterfall (JSON)
//	GET  /v1/traces?max=N            NDJSON tail of finished traces
//	GET  /v1/brownout                brownout controller state
//	POST /v1/brownout                pin a brownout mode or unpin
//
// Every /v1/* response carries X-Trace-Id (fetchable from /v1/trace/{id})
// and X-Trace-Summary, a one-line queue+service waterfall. -pprof serves
// net/http/pprof on a loopback admin port for correlating traces with
// CPU profiles.
//
// All endpoints accept ?timeout=30s. The /v1/* routes sit behind an
// admission controller that applies the paper's own law to the server:
// it counts the requests in flight, reports their windowed mean as n_avg,
// and sheds with 429 + Retry-After once -limit-ceiling of them are in
// flight and the queue behind them is full (cmd/llload drives it);
// /v1/watch connections pass a second limiter of the same kind
// (-max-streams). On top of the limiter sits the brownout ladder
// (internal/brownout): sustained pressure — in flight plus queued, over
// the ceiling — steps the server through stale serving, analytic fallback
// and selective shedding before anything fails outright; -no-brownout
// turns it off. Shutdown is graceful and drain-aware: SIGINT/SIGTERM flips
// /healthz to "draining" (llproxy stops routing here), sheds new work
// with 503 + Retry-After, sends a terminal shutdown event to live
// streams, waits up to -drain-timeout for in-flight requests with the
// listener still open, then closes.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"littleslaw/internal/buildinfo"
	"littleslaw/internal/debugmux"
	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 5*time.Minute, "default per-request deadline (?timeout= overrides, capped by -max-timeout)")
	maxTimeout := flag.Duration("max-timeout", 30*time.Minute, "largest accepted per-request deadline")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations per request pipeline")
	paperProfiles := flag.Bool("paper-profiles", false, "serve the paper's published anchor curves instead of running the X-Mem characterization (instant, deterministic)")
	warm := flag.Bool("warm", false, "characterize all platforms in the background at startup")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long to keep the listener open in draining mode (healthz reports draining, new work sheds 503) before closing it")
	runnerTTL := flag.Duration("runner-ttl", 0, "simulation cache TTL; expired entries recompute normally (tables included: they are rendered from these entries on every request) but stay servable as marked-stale answers under brownout B1 (0 = never expires)")
	noBrownout := flag.Bool("no-brownout", false, "disable the brownout ladder (requires admission control to be on to matter)")
	limitCeiling := flag.Float64("limit-ceiling", 64, "admission ceiling: most requests in flight at once, arrivals past it queue then shed (negative disables admission control)")
	limitQueue := flag.Int("limit-queue", 0, "admission queue depth (0 = 2×ceiling, negative = shed immediately)")
	limitQueueTimeout := flag.Duration("limit-queue-timeout", 5*time.Second, "longest a request waits in the admission queue")
	maxStreams := flag.Int("max-streams", 64, "ceiling of the /v1/watch limiter: most connections open at once, arrivals past it shed with 429 + Retry-After, no queue (negative disables the cap)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server read timeout (full request including body)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server keep-alive idle timeout")
	writeTimeout := flag.Duration("write-timeout", time.Minute, "per-write response deadline, re-armed before every write (bounds stalled clients without cutting long-lived streams)")
	faultSpec := flag.String("faults", "", "fault-injection spec, e.g. 'seed=42;handler.*=error:0.2;runner.run=latency:0.1:50ms' (empty = faults off; runtime control via /v1/faults)")
	traceCapacity := flag.Int("trace-capacity", 0, "finished request traces retained for GET /v1/trace/{id} (0 = 256)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this loopback admin address (e.g. "+debugmux.DefaultAddr+"; empty = disabled)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "llserved")
		return
	}

	cfg := service.Config{
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		Workers:           *workers,
		LimitCeiling:      *limitCeiling,
		LimitQueue:        *limitQueue,
		LimitQueueTimeout: *limitQueueTimeout,
		MaxStreamClients:  *maxStreams,
		WriteTimeout:      *writeTimeout,
		TraceCapacity:     *traceCapacity,
		RunnerTTL:         *runnerTTL,
		DisableBrownout:   *noBrownout,
	}
	if *paperProfiles {
		cfg.ProfileFor = func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return experiments.PaperProfileFor(p)
		}
	}
	if *faultSpec != "" {
		seed, rules, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatalf("llserved: -faults: %v", err)
		}
		if err := faults.Global().Configure(seed, rules); err != nil {
			log.Fatalf("llserved: -faults: %v", err)
		}
		log.Printf("llserved: fault injection armed (%s)", faults.FormatSpec(seed, rules))
	}
	srv := service.New(cfg)

	if *pprofAddr != "" {
		got, closePprof, err := debugmux.Serve(*pprofAddr)
		if err != nil {
			log.Fatalf("llserved: -pprof: %v", err)
		}
		defer closePprof()
		log.Printf("llserved: pprof on http://%s/debug/pprof/", got)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *warm {
		go func() {
			for _, p := range platform.All() {
				if _, err := srv.Warm(ctx, p.Name); err != nil {
					log.Printf("llserved: warm %s: %v", p.Name, err)
					return
				}
				log.Printf("llserved: profile for %s ready", p.Name)
			}
		}()
	}

	// No http.Server WriteTimeout: it is a whole-response deadline that
	// would sever long-lived /v1/watch streams. The service arms a per-write
	// deadline (-write-timeout) before each write instead, which bounds
	// stalled clients while letting healthy streams run indefinitely.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("llserved: listening on %s (profiles: %s)", *addr, profileMode(*paperProfiles))

	select {
	case err := <-errc:
		log.Fatalf("llserved: %v", err)
	case <-ctx.Done():
	}

	// Drain first, listener open: the prober sees "draining" and reroutes
	// before this process stops answering.
	logf := func(format string, args ...any) { log.Printf("llserved: "+format, args...) }
	if err := srv.DrainAndShutdown(httpSrv, *drainTimeout, *shutdownGrace, logf); err != nil {
		log.Printf("llserved: shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("llserved: bye")
}

func profileMode(paper bool) string {
	if paper {
		return "paper anchors"
	}
	return "X-Mem characterization on demand"
}
