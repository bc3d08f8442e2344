package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"littleslaw/internal/faults"
	"littleslaw/internal/service"
	"littleslaw/internal/trace"
)

// unary builds the handler for a request/response route: the proxy's own
// part of the request — body read, the cluster.forward site, routing,
// forward and relay — inside the shared envelope.
func (p *Proxy) unary(route string) http.Handler {
	memo := &keyMemo{route: route}
	return p.Wrap(route, func(w http.ResponseWriter, r *http.Request) error {
		body, err := service.ReadBody(r)
		if err != nil {
			return err
		}
		if err := p.forwardFault(r); err != nil {
			return err
		}
		cands, decision := p.candidates(memo.key(r, body), false)
		if len(cands) == 0 {
			return p.shedNoBackend()
		}
		// The routing decision as a zero-duration marker span: which rule
		// won and which backend leads the candidate order.
		trace.Add(r.Context(), "route", cands[0].note(decision), 0, 0)
		x := unaryExchange(r, body)
		res, err := p.sequential(r.Context(), cands, &x, r.URL.RequestURI())
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

// unaryExchange is what a unary route sends on: r's method and body, with
// the one header such a forward carries when there is a body —
// Content-Type, JSON unless the caller named another type. The caller
// sets the target.
func unaryExchange(r *http.Request, body []byte) exchange {
	x := exchange{method: r.Method, body: body}
	if len(body) > 0 {
		x.contentType = "application/json"
		if ct := r.Header["Content-Type"]; len(ct) > 0 && ct[0] != "" {
			x.contentType = ct[0]
		}
	}
	return x
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
func (p *Proxy) sequential(ctx context.Context, cands []*Backend, x *exchange, target string) (*reply, error) {
	var last *reply
	var lastErr error
	for i, b := range cands {
		if i > 0 {
			p.failovers.Inc()
			trace.Add(ctx, "failover", b.Name, 0, 0)
		}
		x.target = b.prefix + target
		res, err := p.tryBackend(ctx, b, x)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if !failoverWorthy(res.status) {
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
// The attempt may last as long as llserved lets a request run
// (service.MaxTimeout, a deadline on the connection); the caller's own
// deadline or disconnect ends it sooner.
func (p *Proxy) tryBackend(ctx context.Context, b *Backend, x *exchange) (*reply, error) {
	b.arrive(p.cfg.Now())
	begin := time.Now()
	res, err := b.lane.do(ctx, x, begin.Add(service.MaxTimeout))
	elapsed := time.Since(begin)
	b.complete(p.cfg.Now())
	if err != nil {
		if ctx.Err() != nil {
			// A caller that disconnected or ran out of deadline says
			// nothing about the backend's health.
			p.requests.With(b.Name, outcomeCanceled.String()).Inc()
			trace.Add(ctx, "forward", b.note(outcomeCanceled), 0, elapsed)
			return nil, err
		}
		b.failure(p.cfg.Now())
		p.requests.With(b.Name, outcomeError.String()).Inc()
		trace.Add(ctx, "forward", b.note(outcomeError), 0, elapsed)
		return nil, err
	}
	// Any HTTP response — a shed, even a 500 — proves the process is alive;
	// the breaker guards against unreachable backends, not unhappy ones.
	b.success()
	p.latency.With(b.Name).Observe(elapsed.Seconds())
	outcome := outcomeOf(res.status)
	p.requests.With(b.Name, outcome.String()).Inc()
	// Forward attempts are leaf spans with the measured wall time; they
	// run one after another, so they sum to at most the request's W.
	trace.Add(ctx, "forward", b.note(outcome), 0, elapsed)
	return res, nil
}

func outcomeOf(status int) word {
	switch {
	case status == http.StatusTooManyRequests:
		return outcomeShed
	case status >= 200 && status < 300:
		return outcomeOK
	case status >= 500:
		return outcomeServerError
	default:
		return outcomeClientError
	}
}

// respond relays the backend's final response. Header keys are the
// canonical forms, read and assigned directly.
func (p *Proxy) respond(w http.ResponseWriter, res *reply) {
	ct := "application/json"
	if v := res.header["Content-Type"]; len(v) > 0 && v[0] != "" {
		ct = v[0]
	}
	h := w.Header()
	service.HardenHeaders(h, ct, false)
	// Degradation markers relay untouched: a client behind the proxy must
	// see the same brownout honesty a direct client would.
	for _, k := range [...]string{"Retry-After", "Cache-Control", "X-Brownout-Mode", "X-Degraded"} {
		if v := res.header[k]; len(v) > 0 && v[0] != "" {
			h[k] = v[:1]
		}
	}
	// The backend's own trace id, relayed under a distinct name so one
	// response links both tiers' waterfalls (the proxy's X-Trace-Id is its
	// own; fetch the backend's from that backend's /v1/trace).
	if v := res.header["X-Trace-Id"]; len(v) > 0 && v[0] != "" {
		h["X-Backend-Trace-Id"] = v[:1]
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// shedNoBackend is the answer when every backend's breaker is open. The
// Retry-After is the cooldown: when the next half-open trial can fire;
// retrying sooner cannot succeed.
func (p *Proxy) shedNoBackend() error {
	p.noBackend.Inc()
	return service.Fail(http.StatusServiceUnavailable, fmt.Errorf("no healthy backends"), p.cfg.BreakerCooldown)
}
