// The request envelope: the one boundary both binaries draw around
// themselves, and so where each applies Equation 1 to itself. Inside it a
// request is counted in flight (metrics.Occupancy: n), traced from arrival
// to final status (the trace sink: W), refused once drain began, answered
// with a JSON 500 if it panics, and every error it returns becomes a status,
// a Retry-After hint and a body from the one hardened JSON writer. llserved
// puts its deadline, brownout ladder, admission and handler fault site
// inside; llproxy puts body read, routing, forwarding and relay.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/faults"
	"littleslaw/internal/limit"
	"littleslaw/internal/metrics"
	"littleslaw/internal/stream"
	"littleslaw/internal/trace"
)

// drainRetryAfter is the Retry-After hint on drain sheds: long enough for
// a rolling restart's replacement process to come up, short enough that a
// client retrying through a proxy fails over immediately (503 is
// failover-worthy there) and a direct client is not parked.
const drainRetryAfter = time.Second

// Envelope is one binary's request boundary. Construct with NewEnvelope;
// set the hooks before traffic.
type Envelope struct {
	// Drained, if set, observes each request the drain gate refuses.
	Drained func(route string)
	// Finished, if set, observes every request that leaves the envelope:
	// its route, final status and residence time W.
	Finished func(route string, status int, w time.Duration)
	// OnDrain, if set, runs once inside BeginDrain, before the trace tail
	// closes (llserved ends its watch streams there).
	OnDrain func()
	// Faults, if set, rides on every wrapped request's context: the one
	// injector each fault site under the request evaluates (faults.Eval).
	Faults *faults.Injector

	writeTimeout time.Duration
	drainErr     error

	occupancy *metrics.Occupancy // the envelope's exact in-flight and its n_avg
	traces    *trace.Sink
	tail      *stream.BrokerOf[trace.Record]

	draining  atomic.Bool
	drainOnce sync.Once
}

// NewEnvelope builds the envelope for the binary who names in its drain
// refusal ("server", "proxy"). traceCapacity bounds the finished-trace ring
// (0 = trace.DefaultCapacity); writeTimeout is the per-write deadline armed
// before every response write (0 = none).
func NewEnvelope(who string, traceCapacity int, writeTimeout time.Duration) *Envelope {
	e := &Envelope{
		writeTimeout: writeTimeout,
		drainErr: Fail(http.StatusServiceUnavailable,
			fmt.Errorf("%s is draining for shutdown", who), drainRetryAfter),
		occupancy: metrics.NewOccupancy(),
		traces:    trace.NewSink(traceCapacity),
		tail: stream.NewBrokerOf[trace.Record](traceCapacity,
			func(rec *trace.Record, seq int) { rec.Seq = seq }),
	}
	e.traces.OnFinish = func(t *trace.Trace) { e.tail.Publish(trace.Record{Trace: t.View()}) }
	return e
}

// Register exposes the envelope's own Little's-Law readings on reg under
// prefix: <prefix>_inflight_requests, _littles_law_concurrency and
// _draining, plus the per-stage trace decomposition <prefix>_trace_stage_*.
func (e *Envelope) Register(reg *metrics.Registry, prefix string) {
	reg.Derived(prefix+"_inflight_requests",
		"Requests currently inside the request envelope (the directly sampled occupancy).",
		func() float64 { return float64(e.InFlight()) })
	reg.Derived(prefix+"_littles_law_concurrency",
		"The binary's own n_avg: windowed time-average of "+prefix+"_inflight_requests "+
			"(Equation 1 measured on itself).",
		e.occupancy.NAvg)
	reg.Derived(prefix+"_draining",
		"1 once shutdown drain began (healthz reports draining, new work sheds), else 0.",
		func() float64 {
			if e.Draining() {
				return 1
			}
			return 0
		})
	e.traces.Register(reg, prefix+"_trace")
}

// Wrap puts fn inside the envelope as the named route, in a fixed order:
// occupancy, the trace (X-Trace-Id now, X-Trace-Summary at first write), the
// drain gate, then fn with the trace and Faults on its request context. An
// error fn returns is answered by WriteError unless fn already started its
// response; a panic becomes a JSON 500 the same way, after fn's deferred
// releases ran.
func (e *Envelope) Wrap(route string, fn func(http.ResponseWriter, *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		e.occupancy.Arrive()
		defer e.occupancy.Complete()
		// The id goes out even on errors, so a client holding a 429 or 504
		// can still fetch the waterfall.
		tr := e.traces.Start(route)
		w.Header().Set("X-Trace-Id", tr.ID())
		rw := &responseWriter{ResponseWriter: w, tr: tr}
		defer e.finish(route, start, rw)
		// Without this recover a panic would reach net/http, which severs
		// the connection with no response and no trace.
		defer func() {
			if v := recover(); v != nil {
				e.answer(rw, failWith(http.StatusInternalServerError, fmt.Errorf("handler panicked: %v", v)))
			}
		}()
		// Drain wins over everything: once shutdown began, every request
		// sheds with 503 + Retry-After so a proxy fails it over and a
		// rolling restart stays invisible to clients.
		if e.Draining() {
			if e.Drained != nil {
				e.Drained(route)
			}
			e.answer(rw, e.drainErr)
			return
		}
		ctx := trace.NewContext(r.Context(), tr)
		if e.Faults != nil {
			ctx = faults.NewContext(ctx, e.Faults)
		}
		if err := fn(rw, r.WithContext(ctx)); err != nil {
			e.answer(rw, err)
		}
	})
}

// Admin serves an admin route — fault and brownout control, the trace
// tail — outside the envelope: no trace, no drain gate and no in-flight
// count, because the tools for an overloaded or draining binary must
// answer through both. An error fn returns is still answered by WriteError.
func (e *Envelope) Admin(fn func(http.ResponseWriter, *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := fn(w, r); err != nil {
			e.WriteError(w, err)
		}
	})
}

// answer writes err's response unless the route already started its own;
// then there is nothing left to salvage and the status written stands.
func (e *Envelope) answer(rw *responseWriter, err error) {
	if rw.status == 0 {
		e.WriteError(rw, err)
	}
}

func (e *Envelope) finish(route string, start time.Time, rw *responseWriter) {
	status := rw.status
	if status == 0 {
		status = http.StatusOK
	}
	w := time.Since(start)
	rw.tr.Finish(status, w)
	e.traces.Done(rw.tr)
	if e.Finished != nil {
		e.Finished(route, status, w)
	}
}

// responseWriter is the envelope's ResponseWriter: it records the first
// status written and stamps X-Trace-Summary, the spans recorded so far,
// just before the headers go out.
type responseWriter struct {
	http.ResponseWriter
	tr     *trace.Trace
	status int
}

func (w *responseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.ResponseWriter.Header().Set("X-Trace-Summary", w.tr.Summary())
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush
// and SetWriteDeadline, which the streaming routes need.
func (w *responseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ---- drain ----

// BeginDrain flips the binary into its terminal mode: /healthz reports
// "draining" (a prober stops routing here), every wrapped request —
// streams included — sheds with 503 + Retry-After, OnDrain runs, and the
// trace tail gets a terminal "shutdown" record before its broker closes, so
// tailing clients can tell a graceful close from a cut connection.
// Idempotent; it never blocks on subscribers (brokers are drop-oldest).
func (e *Envelope) BeginDrain() {
	e.drainOnce.Do(func() {
		e.draining.Store(true)
		if e.OnDrain != nil {
			e.OnDrain()
		}
		e.tail.Publish(trace.Record{Terminal: "shutdown"})
		e.tail.Close()
	})
}

// Draining reports whether BeginDrain has been called.
func (e *Envelope) Draining() bool { return e.draining.Load() }

// InFlight returns the number of requests currently inside the envelope —
// the quantity Serve's drain polls to zero.
func (e *Envelope) InFlight() int64 { return e.occupancy.InFlight() }

// Serve is the listener's whole life in both binaries: it serves h on ln
// until ctx is done, then takes the SIGTERM path. That is BeginDrain with
// the listener still open, so a prober sees "draining" and reroutes before
// the socket closes; up to drain for the requests in flight to finish; then
// Shutdown with up to grace for what is left. logf narrates each step.
// Serve returns nil after a clean shutdown, or the error that ended serving
// or shutdown.
func (e *Envelope) Serve(ctx context.Context, ln net.Listener, h http.Handler, drain, grace time.Duration, logf func(string, ...any)) error {
	// No WriteTimeout: it is a whole-response deadline that would sever
	// long-lived /v1/watch streams. llserved arms a per-write deadline
	// (writeTimeout) before each write instead, which bounds stalled
	// clients while letting healthy streams run indefinitely.
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}

	e.BeginDrain()
	logf("draining (up to %s for %d in-flight requests, listener open)", drain, e.InFlight())
	deadline := time.Now().Add(drain)
	for e.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	logf("shutting down (waiting up to %s for in-flight requests)", grace)
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := hs.Shutdown(sctx)
	<-served // Shutdown closed the listener, so hs.Serve has returned
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// ---- errors and the hardened writer ----

// httpError carries a status code chosen at the failure site, plus an
// optional Retry-After hint for shed requests.
type httpError struct {
	status     int
	err        error
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// Fail answers err with status, and with a Retry-After header when
// retryAfter is positive.
func Fail(status int, err error, retryAfter time.Duration) error {
	return &httpError{status: status, err: err, retryAfter: retryAfter}
}

func failWith(status int, err error) error { return Fail(status, err, 0) }

// retryAfterSeconds renders a shed hint for the Retry-After header: whole
// seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	return strconv.FormatInt(max(int64((d+time.Second-1)/time.Second), 1), 10)
}

// WriteError maps err to a status and writes the JSON error body. Context
// expiry wins over whatever the pipeline reported, so a timed-out request
// is a 504 regardless of which layer noticed first; then a status chosen at
// the failure site (Fail) with its Retry-After; anything else is a 500.
func (e *Envelope) WriteError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; 499 in the nginx tradition (never reaches the
		// client, but the metrics distinguish it from server faults).
		status = 499
	case errors.As(err, &he):
		status = he.status
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(he.retryAfter))
		}
	}
	e.WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

// WriteJSON writes v as a hardened JSON response.
func (e *Envelope) WriteJSON(w http.ResponseWriter, status int, v any) {
	e.writeBody(w, status, encodeJSON(v))
}

// writeBody writes an encoded JSON body under the hardened headers.
func (e *Envelope) writeBody(w http.ResponseWriter, status int, body []byte) {
	e.armWrite(w)
	HardenHeaders(w.Header(), "application/json", true)
	w.WriteHeader(status)
	w.Write(body)
}

// armWrite arms the per-write deadline immediately before a response
// write: a stalled client can hold the connection for at most the write
// timeout past its last successful write, while a healthy long-lived stream
// is never cut. Writers without deadline support (httptest recorders) are
// left alone.
func (e *Envelope) armWrite(w http.ResponseWriter) {
	if e.writeTimeout <= 0 {
		return
	}
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(e.writeTimeout))
}

// HardenHeaders is the one place response hardening happens: every
// response is nosniff, and request-derived payloads (analysis results,
// event streams) are marked uncacheable so no intermediary replays a stale
// verdict. An empty contentType leaves Content-Type unset.
func HardenHeaders(h http.Header, contentType string, noStore bool) {
	if contentType != "" {
		h.Set("Content-Type", contentType)
	}
	h.Set("X-Content-Type-Options", "nosniff")
	if noStore {
		h.Set("Cache-Control", "no-store")
	}
}

// encodeJSON renders v as every JSON response body is written: indented
// two spaces, newline-terminated. A value that cannot be encoded renders as
// an empty body, as it always has.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return b.Bytes()
}

// serveEvents streams a broker subscription to the client until the
// broker closes, the client leaves, or limit events went out (0 = no
// limit). Each event is written by write under a freshly armed per-write
// deadline — the deadline bounds each write, not the stream, so a healthy
// subscriber can stay for hours while a stalled one is cut a write timeout
// after its last drained write — and flushed at once.
func serveEvents[T any](e *Envelope, w http.ResponseWriter, r *http.Request, sub *stream.SubscriberOf[T], contentType string, limit int, write func(T) error) {
	HardenHeaders(w.Header(), contentType, true)
	e.armWrite(w)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()
	for sent := 0; limit == 0 || sent < limit; sent++ {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			e.armWrite(w)
			if write(ev) != nil || rc.Flush() != nil {
				return
			}
		}
	}
}

// queryInt reads the integer query parameter name, def when it is absent;
// a value outside [1, max] is a 400.
func queryInt(r *http.Request, name string, def, max int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > max {
		return 0, failWith(http.StatusBadRequest, fmt.Errorf("%s must be in [1, %d]", name, max))
	}
	return n, nil
}

// ReadBody reads a request body of at most MaxBodyBytes; a failure is a 400.
func ReadBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, failWith(http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
	}
	return data, nil
}

// ---- llserved's part of a request ----

// route is llserved's own part of a request, run inside the envelope: the
// ?timeout= deadline, the brownout ladder, admission through gate (nil =
// admission control off), and the handler.<route> fault site in front of
// the handler body. Unary routes pass the server's limiter and /v1/watch
// the stream limiter; both gate on what they hold in flight against their
// ceiling and shed with 429 + the limiter's Retry-After.
func (s *Server) route(name string, gate *limit.Limiter, fn func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	return s.Wrap(name, func(w http.ResponseWriter, r *http.Request) error {
		ctx, cancel, err := s.requestContext(r)
		if err != nil {
			return failWith(http.StatusBadRequest, err)
		}
		defer cancel()
		tr := trace.FromContext(ctx)

		// Every request is a pressure sample for the brownout ladder; the
		// resulting mode is stamped on the response (even on sheds — it is
		// the explanation), threaded through context so resolveAnalyze can
		// pick the cheaper path, and noted on the trace so waterfalls show
		// why an answer was analytic or stale.
		mode := s.observeMode()
		if mode > brownout.B0 {
			w.Header().Set("X-Brownout-Mode", mode.String())
			tr.Add("brownout", mode.String(), 0, 0)
		}
		if mode >= shedAt(name) {
			s.admissions.With(name, "brownout_shed").Inc()
			return Fail(http.StatusServiceUnavailable,
				fmt.Errorf("brownout %s (%s): route %q shed", mode, mode.Label(), name), brownoutRetryAfter)
		}
		r = r.WithContext(withMode(ctx, mode))

		// Admission happens under the request context, so a queued arrival
		// waits at most min(queue deadline, request deadline) — and under
		// the trace, so the limiter records its queue wait as a span. The
		// release is deferred, so a panicking handler returns its slot too.
		if gate != nil {
			release, waited, err := gate.Acquire(r.Context(), name)
			if err != nil {
				// Unless shed, the request's own deadline expired while
				// queued and the usual context mapping (504/499) applies.
				// One return here keeps route's defers open-coded.
				decision := "expired"
				var shed *limit.ShedError
				if errors.As(err, &shed) {
					decision = "shed"
					what := "server occupancy"
					if gate == s.streams {
						what = "stream clients"
					}
					err = Fail(http.StatusTooManyRequests,
						fmt.Errorf("admission denied: %s at ceiling", what), shed.RetryAfter)
				}
				s.admissions.With(name, decision).Inc()
				return err
			}
			defer release()
			if waited {
				s.admissions.With(name, "queued").Inc()
			}
			s.admissions.With(name, "admitted").Inc()
		}

		h := tr.Begin("handler")
		defer h.End("")
		switch f := faults.Eval(r.Context(), "handler."+name); f.Kind {
		case faults.KindLatency:
			f.Sleep(r.Context())
		case faults.KindError:
			// A transient dependency failure: 503 with a short Retry-After,
			// the shape a resilient client retries.
			return Fail(http.StatusServiceUnavailable, f.Err(), time.Second)
		case faults.KindPanic:
			panic(f.PanicValue())
		}
		return fn(w, r)
	})
}

// requestContext derives the per-request deadline: ?timeout=30s overrides
// the default, capped at MaxTimeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		parsed, err := time.ParseDuration(v)
		if err != nil || parsed <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout %q", v)
		}
		d = min(parsed, MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}
