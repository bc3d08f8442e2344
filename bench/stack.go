package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"littleslaw/internal/cluster"
	"littleslaw/internal/experiments"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/service"
)

// runnerCapacity is the per-process simulation cache llserved runs with
// (runner.Default()'s size). Each in-process backend gets its own: separate
// llserved processes do not share a cache.
const runnerCapacity = 512

// limitCeiling is the one setting that departs from the defaults, applied
// to the two places that use the same estimator. llserved's admission
// controller compares n_avg = lambda x W(EWMA) with its ceiling (default 64)
// and knows nothing of the two requests actually in flight: at hit_serve's
// ~15 000 requests a second one 20 ms stall lifts the EWMA to 4 ms and n_avg
// to the ceiling, both clients queue with nothing in flight to drain them,
// and five seconds later they are shed (seen once in a 60 s run on this box;
// README, "Findings"). llproxy's per-backend estimate is the same product
// against an occupancy ceiling of 32: at fleet_zipf's few thousand hits a
// second one 50 ms miss lifts a backend's W to 10 ms and its n_avg past the
// ceiling, and the proxy sends that backend's keys elsewhere, where they
// miss (1 485 overrides and 209 lost hits in one 10 s window). A benchmark
// that fails whenever a neighbour hiccups measures the neighbour, so both
// ceilings are raised until only a one-second stall could reach them. Both
// estimators stay on the request path, and the run still asserts that
// nothing was queued, shed or sent off its owner.
const limitCeiling = 4096

// backend is one in-process llserved: the service built from its public
// constructor exactly as cmd/llserved -paper-profiles builds it, behind an
// http.Server on a fixed loopback port.
type backend struct {
	addr   string
	srv    *service.Server
	runner *runner.Runner
	http   *http.Server
}

// stack is the system under test: one backend, or an llproxy in front of
// three. Clients send to url.
type stack struct {
	backends []*backend
	proxy    *cluster.Proxy
	proxySrv *http.Server
	url      string
}

// wrapFunc lets the traced run put a timing wrapper around each handler
// the harness constructs; the untraced run passes nil and serves the
// handlers bare.
type wrapFunc func(tier string, h http.Handler) http.Handler

// profileHook wraps the ProfileFor hook; nil leaves it bare.
type profileHook func(fn func() (*queueing.Curve, error)) (*queueing.Curve, error)

// listen binds loopback port base+offset. The ring hashes backend
// host:port, so an ephemeral port would give every run its own key-to-owner
// map and the miss counts would stop repeating; a busy port is therefore an
// error, not a reason to pick another. A socket of the previous run may
// still be closing, hence the short retry. Base 0 asks for an ephemeral
// port: the smoke test asserts nothing that depends on the ring, and must
// not fail because something else holds a port.
func listen(base, offset int) (net.Listener, error) {
	port := 0
	if base != 0 {
		port = base + offset
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("fixed benchmark port busy (choose another -port-base): %w", err)
}

// serve mirrors the http.Server settings of cmd/llserved and cmd/llproxy.
func serve(ln net.Listener, h http.Handler) *http.Server {
	s := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.Serve(ln)
	return s
}

func newBackend(portBase, offset int, wrap wrapFunc, hook profileHook) (*backend, error) {
	ln, err := listen(portBase, offset)
	if err != nil {
		return nil, err
	}
	r := runner.New(runnerCapacity)
	srv := service.New(service.Config{
		ProfileFor: func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			if hook != nil {
				return hook(func() (*queueing.Curve, error) { return experiments.PaperProfileFor(p) })
			}
			return experiments.PaperProfileFor(p)
		},
		SimRunner:    r,
		LimitCeiling: limitCeiling,
	})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(tierService, h)
	}
	return &backend{addr: ln.Addr().String(), srv: srv, runner: r, http: serve(ln, h)}, nil
}

// newStack builds nBackends llserved instances on portBase+1.. and, when
// there is more than one, an llproxy on portBase sharding across them.
func newStack(nBackends, portBase int, wrap wrapFunc, hook profileHook) (*stack, error) {
	st := &stack{}
	for i := 0; i < nBackends; i++ {
		b, err := newBackend(portBase, 1+i, wrap, hook)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.backends = append(st.backends, b)
	}
	if nBackends == 1 {
		st.url = "http://" + st.backends[0].addr
		return st, nil
	}
	urls := make([]string, nBackends)
	for i, b := range st.backends {
		urls[i] = "http://" + b.addr
	}
	p, err := cluster.New(cluster.Config{Backends: urls, Seed: 1, OccupancyCeiling: limitCeiling})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := listen(portBase, 0)
	if err != nil {
		st.Close()
		return nil, err
	}
	p.Start()
	h := p.Handler()
	if wrap != nil {
		h = wrap(tierProxy, h)
	}
	st.proxy, st.proxySrv = p, serve(ln, h)
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// Close stops every server and the proxy's prober and waits for them.
func (st *stack) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if st.proxySrv != nil {
		st.proxySrv.Shutdown(ctx)
	}
	if st.proxy != nil {
		st.proxy.Close()
	}
	for _, b := range st.backends {
		b.http.Shutdown(ctx)
	}
}

// runnerStats sums the backends' simulation-cache counters.
func (st *stack) runnerStats() (hits, misses uint64) {
	for _, b := range st.backends {
		s := b.runner.Stats()
		hits += s.Hits
		misses += s.Misses
	}
	return hits, misses
}
