package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/queueing"
)

// Span names of the seams the harness itself constructs. Spans inside the
// program are a later change; these are recorded from the benchmark's own
// files, around the public entry point of each tier.
const (
	spanClient  = "bench.client"
	tierProxy   = "cluster.proxy"
	tierService = "service.handler"
	spanProfile = "experiments.profile_for"
)

// serverSpan is one pass through a wrapped handler, keyed by the trace id
// that tier stamped on its response — the id the client (or the proxy, as
// X-Backend-Trace-Id) relays, which is what joins the tiers.
type serverSpan struct {
	start, end time.Time
	// simMs is the kernel time the server's own waterfall reported for
	// this request (X-Trace-Summary), -1 when it ran no simulation.
	simMs float64
}

// recorder keeps the traced run's spans in memory until the run ends.
type recorder struct {
	on atomic.Bool

	mu       sync.Mutex
	spans    map[string]map[string]serverSpan // tier -> trace id -> span
	profiles []serverSpan
}

func newRecorder() *recorder {
	return &recorder{spans: map[string]map[string]serverSpan{tierProxy: {}, tierService: {}}}
}

// simMsOf extracts the "sim" stage's service time from a trace summary
// ("runner=miss 0.0+0.1; sim 0.0+12.3; total 12.6ms").
func simMsOf(summary string) float64 {
	for _, part := range strings.Split(summary, "; ") {
		if rest, ok := strings.CutPrefix(part, "sim "); ok {
			if _, svc, ok := strings.Cut(rest, "+"); ok {
				if v, err := strconv.ParseFloat(svc, 64); err == nil {
					return v
				}
			}
		}
	}
	return -1
}

func (r *recorder) wrap(tier string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		sp := serverSpan{start: time.Now()}
		h.ServeHTTP(w, req)
		sp.end = time.Now()
		id := w.Header().Get("X-Trace-Id")
		if id == "" {
			return // /healthz probes and /metrics carry no trace
		}
		sp.simMs = simMsOf(w.Header().Get("X-Trace-Summary"))
		r.mu.Lock()
		r.spans[tier][id] = sp
		r.mu.Unlock()
	})
}

func (r *recorder) profileHook(fn func() (*queueing.Curve, error)) (*queueing.Curve, error) {
	sp := serverSpan{start: time.Now()}
	c, err := fn()
	sp.end = time.Now()
	r.mu.Lock()
	r.profiles = append(r.profiles, sp)
	r.mu.Unlock()
	return c, err
}

// joined is one request's spans across the tiers.
type joined struct {
	client  time.Duration
	proxy   time.Duration // 0 without a proxy
	service time.Duration
	simMs   float64
	ok      bool // every tier's span was found
}

// join finds the handler spans behind one client sample.
func (r *recorder) join(s sample, ids traceIDs, withProxy bool) joined {
	j := joined{client: s.lat, simMs: -1}
	backendID := ids.outer
	if withProxy {
		p, ok := r.spans[tierProxy][ids.outer]
		if !ok {
			return j
		}
		j.proxy = p.end.Sub(p.start)
		backendID = ids.backend
	}
	b, ok := r.spans[tierService][backendID]
	if !ok {
		return j
	}
	j.service, j.simMs, j.ok = b.end.Sub(b.start), b.simMs, true
	return j
}

// spanLine is the on-disk form of one span.
type spanLine struct {
	Req     int    `json:"req"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes the traced window as JSON lines: per request a client
// span and, beneath it, the proxy's and the backend's handler spans, with
// times in nanoseconds since the window opened.
func (r *recorder) writeSpans(path string, win *phase, withProxy bool) error {
	t0 := win.start
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(req, span, parent int, name string, start, end time.Time) {
		enc.Encode(spanLine{req, span, parent, name, start.Sub(t0).Nanoseconds(), end.Sub(t0).Nanoseconds()})
	}
	for _, sp := range r.profiles {
		emit(-1, 1, 0, spanProfile, sp.start, sp.end)
	}
	for _, s := range win.samples {
		end := t0.Add(s.end)
		emit(int(s.idx), 1, 0, spanClient, end.Add(-s.lat), end)
		ids := win.traceOf(s)
		parent, backendID := 1, ids.outer
		if withProxy {
			if p, ok := r.spans[tierProxy][ids.outer]; ok {
				emit(int(s.idx), 2, 1, tierProxy, p.start, p.end)
				parent = 2
			}
			backendID = ids.backend
		}
		if b, ok := r.spans[tierService][backendID]; ok {
			emit(int(s.idx), parent+1, parent, tierService, b.start, b.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
