package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"littleslaw/internal/client"
	"littleslaw/internal/faults"
	"littleslaw/internal/service"
	"littleslaw/internal/trace"
)

// unary builds the handler for a request/response route: the proxy's own
// part of the request — body read, the cluster.forward site, routing,
// forward (hedged for idempotent GETs, racing a second backend after
// HedgeDelay) and relay — inside the shared envelope.
func (p *Proxy) unary(route string, hedgeable bool) http.Handler {
	return p.Wrap(route, func(w http.ResponseWriter, r *http.Request) error {
		body, err := service.ReadBody(r)
		if err != nil {
			return err
		}
		if err := p.forwardFault(r); err != nil {
			return err
		}
		cands, decision := p.candidates(affinityKey(route, r, body), false)
		if len(cands) == 0 {
			return p.shedNoBackend()
		}
		// The routing decision as a zero-duration marker span: which rule
		// won and which backend leads the candidate order.
		trace.Add(r.Context(), "route", decision+" "+cands[0].Name, 0, 0)
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
			// %v, not %w: the status is chosen here, not by the error's cause.
			return service.Fail(status, fmt.Errorf("forwarding failed: %v", err), 0)
		}
		p.respond(w, res)
		return nil
	})
}

// forwardFault evaluates the cluster.forward site; a non-nil error is the
// injected failure to answer instead of forwarding.
func (p *Proxy) forwardFault(r *http.Request) error {
	switch f := p.faults.Eval(ForwardFaultSite); f.Kind {
	case faults.KindLatency:
		f.Sleep(r.Context())
	case faults.KindError:
		// The proxy's own transient failure: 502 with a short hint, the
		// shape a resilient client retries.
		return service.Fail(http.StatusBadGateway, f.Err(), time.Second)
	case faults.KindPanic:
		panic(f.PanicValue())
	}
	return nil
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

// tryBackend makes one attempt at one backend, feeding the occupancy
// estimator, the breaker and the metrics with time spent at that backend
// alone: a retry, if any, is the caller's failover to the next candidate.
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
	service.HardenHeaders(h, ct, false)
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

// shedNoBackend is the answer when every backend's breaker is open. The
// Retry-After is the cooldown: when the next half-open trial can fire;
// retrying sooner cannot succeed.
func (p *Proxy) shedNoBackend() error {
	p.noBackend.Inc()
	return service.Fail(http.StatusServiceUnavailable, fmt.Errorf("no healthy backends"), p.cfg.BreakerCooldown)
}
