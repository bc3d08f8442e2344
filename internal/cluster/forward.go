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
// forward and relay — inside the shared envelope.
func (p *Proxy) unary(route string) http.Handler {
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
		res, err := p.sequential(r.Context(), cands, r.Method, forwardPath(r), r.Header.Get("Content-Type"), body)
		if err != nil {
			status := http.StatusBadGateway
			if r.Context().Err() != nil {
				status = http.StatusGatewayTimeout
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
	switch f := faults.Eval(r.Context(), ForwardFaultSite); f.Kind {
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
// non-failover-worthy response. When every candidate fails, the last
// response any of them gave is relayed, Retry-After and all; an error
// comes back only when none answered at all.
func (p *Proxy) sequential(ctx context.Context, cands []*Backend, method, path, contentType string, body []byte) (*client.Result, error) {
	var last *client.Result
	var lastErr error
	for i, b := range cands {
		if i > 0 {
			p.failovers.Inc()
			trace.Add(ctx, "failover", b.Name, 0, 0)
		}
		res, err := p.tryBackend(ctx, b, method, path, contentType, body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if !failoverWorthy(res.Status) {
			return res, nil
		}
		last = res
	}
	if last != nil {
		return last, nil
	}
	return nil, lastErr
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
			// A caller that disconnected or ran out of deadline says
			// nothing about the backend's health.
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
	// Forward attempts are leaf spans with the measured wall time; they
	// run one after another, so they sum to at most the request's W.
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
