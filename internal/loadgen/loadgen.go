// Package loadgen is the llload client: a small HTTP load generator with
// the two canonical driving disciplines from queueing practice —
// closed-loop (a fixed population of clients, each waiting for its
// response before sending the next; throughput self-limits as latency
// grows) and open-loop (arrivals at a fixed rate regardless of responses;
// the discipline that actually exposes an overloaded server, because the
// offered load does not politely back off). Open-loop arrivals can be
// uniform (a metronome) or Poisson (seeded exponential interarrivals, the
// M in M/M/1), and the whole run is reproducible from a single seed: the
// arrival schedule and the retry jitter both derive from it, so two runs
// with the same options replay the same offered load.
//
// Requests go through internal/client, so every arrival gets the resilient
// treatment — per-attempt timeout, capped jittered backoff on 429/5xx, and
// Retry-After honoring against the service's admission controller.
//
// cmd/llload wraps it as a CLI; internal/service's TestShedThenRecover
// drives it against a real llserved to prove the shed-then-recover
// behavior.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/client"
)

// Options configures one load run.
type Options struct {
	// URL is the target (required unless Targets is set).
	URL string
	// Targets optionally names several target URLs; arrivals round-robin
	// across them and the Result carries a per-target breakdown alongside
	// the aggregate. Empty means the single URL. This is how llload drives
	// a fleet of llserved backends directly, for comparison against the
	// same fleet behind llproxy's affinity routing.
	Targets []string
	// Body is sent with every request, as application/json; it also
	// picks the method (see Method).
	Body []byte
	// Mode is "closed" (default) or "open".
	Mode string
	// Concurrency is the closed-loop client population (default 1).
	Concurrency int
	// Rate is the open-loop arrival rate in requests/second (required in
	// open mode).
	Rate float64
	// Arrivals is the open-loop discipline: "uniform" (default, evenly
	// spaced) or "poisson" (seeded exponential interarrivals).
	Arrivals string
	// Duration bounds the run (default 1s). The context bounds it too.
	Duration time.Duration
	// MaxRequests optionally caps total arrivals (0 = unlimited).
	MaxRequests int
	// Retries is the per-arrival retry cap on 429/5xx/transport errors
	// (default 0 = no retries). Retries honor Retry-After and otherwise
	// back off exponentially with seeded jitter.
	Retries int
	// Backoff is the base retry sleep when the server sends no hint
	// (default 100ms, doubling per attempt).
	Backoff time.Duration
	// Timeout is the per-attempt client timeout (default 10s).
	Timeout time.Duration
	// Seed makes the run reproducible: it drives the Poisson arrival
	// schedule and the retry jitter (0 = seeded from the clock).
	Seed int64
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// Method is the HTTP method a run sends body with: POST when there is a
// body, GET otherwise.
func Method(body []byte) string {
	if len(body) > 0 {
		return http.MethodPost
	}
	return http.MethodGet
}

func (o *Options) normalize() error {
	if len(o.Targets) == 0 {
		if o.URL == "" {
			return fmt.Errorf("loadgen: URL is required")
		}
		o.Targets = []string{o.URL}
	}
	switch o.Mode {
	case "":
		o.Mode = "closed"
	case "closed", "open":
	default:
		return fmt.Errorf("loadgen: mode must be closed or open, got %q", o.Mode)
	}
	switch o.Arrivals {
	case "":
		o.Arrivals = "uniform"
	case "uniform", "poisson":
	default:
		return fmt.Errorf("loadgen: arrivals must be uniform or poisson, got %q", o.Arrivals)
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	if o.Mode == "open" && !(o.Rate > 0 && !math.IsInf(o.Rate, 0)) {
		return fmt.Errorf("loadgen: open mode needs a positive rate")
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return nil
}

// splitURL separates a full target URL into the client's BaseURL and the
// per-request path (with query).
func splitURL(raw string) (base, path string, err error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", "", fmt.Errorf("loadgen: bad URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return "", "", fmt.Errorf("loadgen: URL needs scheme and host, got %q", raw)
	}
	base = u.Scheme + "://" + u.Host
	path = u.Path
	if path == "" {
		path = "/"
	}
	if u.RawQuery != "" {
		path += "?" + u.RawQuery
	}
	return base, path, nil
}

// Schedule returns the open-loop arrival offsets an open-mode Run with
// these options will use: monotonically increasing offsets from the run's
// start, within Duration, capped by MaxRequests. Uniform arrivals tick at
// 1/Rate; Poisson arrivals draw exponential interarrivals from the seeded
// RNG, so the same (Seed, Rate, Duration) always yields the same schedule —
// that determinism is pinned by a regression test. Closed mode has no
// arrival schedule (arrivals are response-driven) and returns nil.
func Schedule(o Options) ([]time.Duration, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	if o.Mode != "open" {
		return nil, nil
	}
	return schedule(&o), nil
}

func schedule(o *Options) []time.Duration {
	// The arrival stream gets its own RNG, decoupled from retry jitter, so
	// the schedule is a pure function of (Seed, Rate, Arrivals, Duration).
	rng := rand.New(rand.NewSource(o.Seed))
	mean := float64(time.Second) / o.Rate
	var offs []time.Duration
	at := 0.0
	for {
		if o.Arrivals == "poisson" {
			at += rng.ExpFloat64() * mean
		} else {
			at += mean
		}
		if at >= float64(o.Duration) {
			return offs
		}
		offs = append(offs, time.Duration(at))
		if o.MaxRequests > 0 && len(offs) >= o.MaxRequests {
			return offs
		}
	}
}

// TargetCounts is the per-target slice of a multi-target run's counters.
// Fields mirror the aggregate Result partition.
type TargetCounts struct {
	Target                          string
	Sent, OK, Shed, Failed, Retries int64
}

// String renders one per-target breakdown line.
func (tc TargetCounts) String() string {
	return fmt.Sprintf("%s  sent %d  ok %d  shed %d  failed %d  retries %d",
		tc.Target, tc.Sent, tc.OK, tc.Shed, tc.Failed, tc.Retries)
}

// Result aggregates one run. Counts are over arrivals (a request retried
// twice is one arrival, three attempts).
type Result struct {
	mu sync.Mutex
	// Sent counts arrivals; OK, Shed and Failed partition their final
	// outcomes (Shed = last attempt got 429; Failed = transport error or
	// non-2xx/non-429).
	Sent, OK, Shed, Failed int64
	// Retries counts extra attempts beyond each arrival's first.
	Retries int64
	// DegradedOK counts the subset of OK whose response the server marked
	// degraded (X-Degraded: a stale cache entry or an analytic
	// approximation). Goodput proper is OK - DegradedOK; a brownout run
	// reports both because a degraded answer is still an answer.
	DegradedOK int64
	// okByMode buckets OK by serving fidelity, keyed by the brownout rung
	// label: "full" (B0 or no brownout), "stale" (B1), "analytic" (B2),
	// "degraded" for an unparseable marker.
	okByMode map[string]int64
	// RetryAfterSeen counts retryable responses that carried a Retry-After
	// hint.
	RetryAfterSeen int64
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// latencies holds one sample per successful request.
	latencies []time.Duration
	// slowestTrace is the X-Trace-Id of the slowest successful request —
	// the waterfall worth pulling from /v1/trace/{id} after a run.
	slowestTrace string
	slowestLat   time.Duration
	// perTarget holds the per-target breakdown, in Options.Targets order.
	perTarget []*TargetCounts
}

// SlowestTrace returns the X-Trace-Id of the slowest successful request
// and its latency ("" when none succeeded or the server does not trace).
func (r *Result) SlowestTrace() (string, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slowestTrace, r.slowestLat
}

// PerTarget snapshots the per-target breakdown, in Options.Targets order.
// Single-target runs report one entry.
func (r *Result) PerTarget() []TargetCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TargetCounts, len(r.perTarget))
	for i, tc := range r.perTarget {
		out[i] = *tc
	}
	return out
}

// OKByMode snapshots the success counts bucketed by serving fidelity
// ("full", "stale", "analytic"). Empty until the first success.
func (r *Result) OKByMode() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.okByMode))
	for k, v := range r.okByMode {
		out[k] = v
	}
	return out
}

// Quantile returns the q-th latency quantile of successful requests, or 0
// when none succeeded. q is clamped into [0, 1] — q <= 0 is the minimum,
// q >= 1 the maximum — and a NaN q returns 0: both out-of-range conversions
// from float to int are platform-defined in Go, so neither may reach the
// index arithmetic. Samples are copied and sorted here, because
// multi-target runs interleave their latencies in completion order.
func (r *Result) Quantile(q float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.latencies) == 0 || math.IsNaN(q) {
		return 0
	}
	s := make([]time.Duration, len(r.latencies))
	copy(s, r.latencies)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// Successes returns the number of latency samples (successful requests).
func (r *Result) Successes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.latencies)
}

// String renders the summary line llload prints. It snapshots the counters
// under the lock, so it is safe to call while a Run is still updating them.
func (r *Result) String() string {
	r.mu.Lock()
	sent, ok, shed, failed := r.Sent, r.OK, r.Shed, r.Failed
	retries, elapsed, degraded := r.Retries, r.Elapsed, r.DegradedOK
	stale, analytic := r.okByMode["stale"], r.okByMode["analytic"]
	r.mu.Unlock()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(ok) / elapsed.Seconds()
	}
	s := fmt.Sprintf(
		"sent %d  ok %d  shed %d  failed %d  retries %d  |  p50 %s  p90 %s  p99 %s  |  %.1f ok/s",
		sent, ok, shed, failed, retries,
		r.Quantile(0.50).Round(time.Millisecond/10),
		r.Quantile(0.90).Round(time.Millisecond/10),
		r.Quantile(0.99).Round(time.Millisecond/10),
		rate)
	if degraded > 0 {
		// The goodput split only appears when the server actually browned
		// out, so non-brownout runs keep the historical summary shape.
		s += fmt.Sprintf("  |  degraded %d (full %d  stale %d  analytic %d)",
			degraded, ok-degraded, stale, analytic)
	}
	return s
}

func (r *Result) record(outcome func(*Result), lat time.Duration) {
	r.mu.Lock()
	outcome(r)
	if lat > 0 {
		r.latencies = append(r.latencies, lat)
	}
	r.mu.Unlock()
}

// target is one resolved destination: its own resilient client (seeded
// distinctly so retry jitter does not synchronize across the fleet) and
// its slice of the counters.
type target struct {
	path   string
	cl     *client.Client
	counts *TargetCounts
}

// Run drives the target(s) until the duration (or context, or MaxRequests)
// expires and returns the aggregate. The error reports option problems
// only — a run against a shedding or failing server is a successful run
// with non-zero Shed/Failed counts.
func Run(ctx context.Context, o Options) (*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	res := &Result{}
	targets := make([]*target, len(o.Targets))
	for i, raw := range o.Targets {
		base, path, err := splitURL(raw)
		if err != nil {
			return nil, err
		}
		// A load generator's job is to offer the configured load, so the
		// retry budget is off: Options.Retries is the explicit, user-chosen
		// cap.
		cl, err := client.New(client.Config{
			BaseURL:     base,
			HTTPClient:  o.Client,
			Timeout:     o.Timeout,
			MaxAttempts: o.Retries + 1,
			Backoff:     o.Backoff,
			Seed:        o.Seed + int64(i),
			BudgetRatio: -1,
		})
		if err != nil {
			return nil, err
		}
		tc := &TargetCounts{Target: raw}
		res.perTarget = append(res.perTarget, tc)
		targets[i] = &target{path: path, cl: cl, counts: tc}
	}
	// Arrivals round-robin across targets in arrival order, so a fleet gets
	// an even split regardless of which discipline generates the arrivals.
	var rr int64
	pick := func() *target {
		n := atomic.AddInt64(&rr, 1) - 1
		return targets[n%int64(len(targets))]
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, o.Duration)
	defer cancel()

	var budget *int64
	if o.MaxRequests > 0 {
		b := int64(o.MaxRequests)
		budget = &b
	}
	take := func() bool {
		if budget == nil {
			return true
		}
		res.mu.Lock()
		defer res.mu.Unlock()
		if *budget <= 0 {
			return false
		}
		*budget--
		return true
	}

	var wg sync.WaitGroup
	if o.Mode == "closed" {
		for w := 0; w < o.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && take() {
					arrival(ctx, pick(), &o, res)
				}
			}()
		}
	} else {
		timer := time.NewTimer(0)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
	arrivals:
		for _, off := range schedule(&o) {
			timer.Reset(time.Until(start.Add(off)))
			select {
			case <-ctx.Done():
				break arrivals
			case <-timer.C:
				if !take() {
					break arrivals
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					arrival(ctx, pick(), &o, res)
				}()
			}
		}
	}
	wg.Wait()
	res.mu.Lock()
	res.Elapsed = time.Since(start)
	res.mu.Unlock()
	return res, nil
}

// arrival issues one arrival through the resilient client and buckets the
// outcome. The client owns retries (429/5xx/transport within the Retries
// cap, Retry-After honored); in-flight attempts use the per-attempt
// timeout rather than the run deadline, so arrivals near the end of the
// window still complete — a context already dead mid-retry just surfaces
// the last response.
func arrival(ctx context.Context, tg *target, o *Options, res *Result) {
	res.record(func(r *Result) { r.Sent++; tg.counts.Sent++ }, 0)
	// Detach the attempt from the run deadline (the old behavior): the run
	// context only gates new arrivals and retry sleeps.
	cr, err := tg.cl.Do(context.WithoutCancel(ctx), Method(o.Body), tg.path, "application/json", o.Body)
	if err != nil {
		res.record(func(r *Result) { r.Failed++; tg.counts.Failed++ }, 0)
		return
	}
	res.record(func(r *Result) {
		r.Retries += int64(cr.Attempts - 1)
		tg.counts.Retries += int64(cr.Attempts - 1)
		r.RetryAfterSeen += int64(cr.Hints)
	}, 0)
	switch {
	case cr.Status >= 200 && cr.Status < 300:
		traceID := cr.Header.Get("X-Trace-Id")
		// A degraded 2xx is still a success — the whole point of the
		// brownout ladder — but it lands in its own fidelity bucket.
		bucket := "full"
		if cr.Degraded {
			bucket = "degraded"
			if m, err := brownout.Parse(cr.BrownoutMode); err == nil {
				bucket = m.Label()
			}
		}
		res.record(func(r *Result) {
			r.OK++
			tg.counts.OK++
			if cr.Degraded {
				r.DegradedOK++
			}
			if r.okByMode == nil {
				r.okByMode = make(map[string]int64, 3)
			}
			r.okByMode[bucket]++
			if traceID != "" && cr.Latency >= r.slowestLat {
				r.slowestTrace, r.slowestLat = traceID, cr.Latency
			}
		}, cr.Latency)
	case cr.Status == http.StatusTooManyRequests:
		res.record(func(r *Result) { r.Shed++; tg.counts.Shed++ }, 0)
	default:
		res.record(func(r *Result) { r.Failed++; tg.counts.Failed++ }, 0)
	}
}
