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
// /v1/watch connections pass a second limiter of the same kind, with a
// ceiling of 64. On top of the limiter sits the brownout ladder
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
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"littleslaw/internal/cli"
	"littleslaw/internal/debugmux"
	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	cli.Exit("llserved", err)
}

// run serves until ctx is done, then drains and shuts down. It logs to
// stderr; stdout carries only -version.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("llserved", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 5*time.Minute, "default per-request deadline (?timeout= overrides, capped at 30m)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations per request pipeline")
	paperProfiles := fs.Bool("paper-profiles", false, "serve the paper's published anchor curves instead of running the X-Mem characterization (instant, deterministic)")
	warm := fs.Bool("warm", false, "characterize all platforms in the background at startup")
	shutdownGrace := fs.Duration("shutdown-grace", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long to keep the listener open in draining mode (healthz reports draining, new work sheds 503) before closing it")
	runnerTTL := fs.Duration("runner-ttl", 0, "simulation cache TTL; expired entries recompute normally (tables included: they are rendered from these entries on every request) but stay servable as marked-stale answers under brownout B1 (0 = never expires)")
	noBrownout := fs.Bool("no-brownout", false, "disable the brownout ladder (requires admission control to be on to matter)")
	limitCeiling := fs.Float64("limit-ceiling", 64, "admission ceiling: most requests in flight at once, arrivals past it queue then shed (negative disables admission control)")
	limitQueue := fs.Int("limit-queue", 0, "admission queue depth (0 = 2×ceiling, negative = shed immediately)")
	limitQueueTimeout := fs.Duration("limit-queue-timeout", 5*time.Second, "longest a request waits in the admission queue")
	faultSpec := fs.String("faults", "", "fault-injection spec, e.g. 'seed=42;handler.*=error:0.2;runner.run=latency:0.1:50ms' (empty = faults off; runtime control via /v1/faults)")
	traceCapacity := fs.Int("trace-capacity", 0, "finished request traces retained for GET /v1/trace/{id} (0 = 256)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this loopback admin address (e.g. "+debugmux.DefaultAddr+"; empty = disabled)")
	version := fs.Bool("version", false, "print version and exit")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *version {
		cli.Print(stdout, "llserved")
		return nil
	}
	logger := log.New(stderr, "", log.LstdFlags)
	logf := func(format string, args ...any) { logger.Printf("llserved: "+format, args...) }

	cfg := service.Config{
		DefaultTimeout:    *timeout,
		Workers:           *workers,
		LimitCeiling:      *limitCeiling,
		LimitQueue:        *limitQueue,
		LimitQueueTimeout: *limitQueueTimeout,
		TraceCapacity:     *traceCapacity,
		RunnerTTL:         *runnerTTL,
		DisableBrownout:   *noBrownout,
	}
	if *paperProfiles {
		cfg.ProfileFor = func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return experiments.PaperProfileFor(p)
		}
	}
	in, _ := faults.New(0)
	if *faultSpec != "" {
		if err := in.ConfigureSpec(*faultSpec); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		logf("fault injection armed (%s)", faults.FormatSpec(in.Seed(), in.Rules()))
	}
	cfg.FaultInjector = in
	srv := service.New(cfg)

	if *pprofAddr != "" {
		got, closePprof, err := debugmux.Serve(*pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer closePprof()
		logf("pprof on http://%s/debug/pprof/", got)
	}

	if *warm {
		go func() {
			for _, p := range platform.All() {
				if _, err := srv.Warm(ctx, p.Name); err != nil {
					logf("warm %s: %v", p.Name, err)
					return
				}
				logf("profile for %s ready", p.Name)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("listening on %s (profiles: %s)", ln.Addr(), profileMode(*paperProfiles))
	if err := srv.Serve(ctx, ln, srv.Handler(), *drainTimeout, *shutdownGrace, logf); err != nil {
		return err
	}
	logf("bye")
	return nil
}

func profileMode(paper bool) string {
	if paper {
		return "paper anchors"
	}
	return "X-Mem characterization on demand"
}
