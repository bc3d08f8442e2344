// Command llproxy is the Little's-Law-aware scale-out tier: a reverse
// proxy sharding /v1/* across llserved backends. Requests route by cache
// affinity — a consistent hash of the canonical analysis identity, so
// identical work revisits the backend whose runner LRU already holds the
// result — and spill to the backend with the fewest forwards in flight when
// the affinity owner has the occupancy ceiling's worth in flight (their
// windowed mean n_avg is reported, not routed on). Backends are health-checked
// via /healthz behind per-backend circuit breakers. Each backend gets one
// attempt per request, and one backend at a time: a transport error or a
// retryable status (429, 500, 502, 503, 504) fails over to the next
// candidate, and that failover is the proxy's only retry. An in-place retry
// would wait out the backend's Retry-After and count that wait as the
// owner's occupancy, the signal requests are routed on. An attempt lasts as
// long as llserved lets the request run; only the caller's own deadline or
// disconnect ends it sooner. Backends are plain http:// URLs, each reached
// over its own pool of keep-alive connections.
//
// Usage:
//
//	llproxy -backends http://h1:8080,http://h2:8080,http://h3:8080
//	llproxy -addr :8000 -occupancy-ceiling 16    # spill earlier
//	llproxy -probe-interval 1s                   # faster failure detection
//	llproxy -faults 'seed=1;cluster.forward=latency:0.1:50ms'
//
// Endpoints mirror llserved's /v1/* surface, plus:
//
//	GET /healthz        per-backend breaker state, health and measured occupancy
//	GET /metrics        llproxy_* per-backend metrics (requests, breaker state,
//	                    measured n_avg, failovers)
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"littleslaw/internal/cli"
	"littleslaw/internal/cluster"
	"littleslaw/internal/debugmux"
	"littleslaw/internal/faults"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	cli.Exit("llproxy", err)
}

// run proxies until ctx is done, then drains and shuts down. It logs to
// stderr; stdout carries only -version.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("llproxy", flag.ContinueOnError)
	addr := fs.String("addr", ":8000", "listen address")
	backends := fs.String("backends", "", "comma-separated llserved base URLs (required)")
	ceiling := fs.Float64("occupancy-ceiling", 32, "forwards in flight to the affinity owner at which affinity is overridden and requests spill to the backend with the fewest in flight")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "background /healthz probe spacing (negative disables probing)")
	shutdownGrace := fs.Duration("shutdown-grace", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long to keep the listener open in draining mode (healthz reports draining, new forwards shed 503) before closing it")
	faultSpec := fs.String("faults", "", "fault-injection spec for the proxy's own sites, e.g. 'seed=1;cluster.forward=error:0.1'")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this loopback admin address (e.g. "+debugmux.DefaultAddr+"; empty = disabled)")
	version := fs.Bool("version", false, "print version and exit")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *version {
		cli.Print(stdout, "llproxy")
		return nil
	}
	logger := log.New(stderr, "", log.LstdFlags)
	logf := func(format string, args ...any) { logger.Printf("llproxy: "+format, args...) }
	if *backends == "" {
		return errors.New("-backends is required (comma-separated llserved URLs)")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	in, _ := faults.New(0)
	if *faultSpec != "" {
		if err := in.ConfigureSpec(*faultSpec); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		logf("fault injection armed (%s)", faults.FormatSpec(in.Seed(), in.Rules()))
	}

	p, err := cluster.New(cluster.Config{
		Backends:         urls,
		OccupancyCeiling: *ceiling,
		ProbeInterval:    *probeInterval,
		FaultInjector:    in,
	})
	if err != nil {
		return err
	}
	p.Start()
	defer p.Close()

	if *pprofAddr != "" {
		got, closePprof, err := debugmux.Serve(*pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer closePprof()
		logf("pprof on http://%s/debug/pprof/", got)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("listening on %s, sharding across %s", ln.Addr(), strings.Join(p.Backends(), ", "))
	if err := p.Serve(ctx, ln, p.Handler(), *drainTimeout, *shutdownGrace, logf); err != nil {
		return err
	}
	logf("bye")
	return nil
}
