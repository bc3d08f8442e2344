// Package runner is the single execution spine for node simulations: every
// caller in the repository — the littleslaw facade, the experiments and
// ablation pipelines, the autotuner, the analysis service, the stream
// replayer and the command-line tools — starts its simulations here
// rather than calling the simulator directly.
//
// The runner deduplicates identical work (singleflight: concurrent
// requests for the same canonical configuration share one execution),
// caches completed results in an LRU keyed on the canonicalized
// sim.Config, and instruments itself: cache hit/miss/bypass counters, an
// in-flight gauge, and — in the spirit of the paper it serves — its
// measured occupancy, the time-average of that in-flight count (DESIGN.md
// "How every layer measures n_avg"), exported beside the directly-sampled
// gauge exactly as the paper compares Equation 2 against true MSHR
// occupancy.
package runner

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/engine"
	"littleslaw/internal/faults"
	"littleslaw/internal/metrics"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
	"littleslaw/internal/trace"
)

// FaultSite is the fault-injection point on the run spine: evaluated once
// per simulation execution (cache hits never reach it). It honors latency
// and error faults; an injected error on a cached flight is the "poisoned
// entry" case, which Run degrades around by re-executing directly.
const FaultSite = "runner.run"

// Key is the canonical identity of a cacheable simulation: the normalized
// scalar configuration, the full platform parameterization (ablations
// mutate platform copies, so the name alone is not an identity), and the
// caller-declared generator fingerprint.
type Key struct {
	Plat        string // platform fingerprint, not just its name
	Fingerprint string // generator identity from sim.Config.Fingerprint
	Cores       int
	Threads     int
	Window      int
	GapScale    float64
	SMTShare    float64
	SMTExponent float64
}

// String renders the key as a single stable line — the identity a routing
// tier hashes on so identical analyses land on the backend whose runner
// cache already holds the result. Two configs share a String exactly when
// they share a cache entry. The bytes are those of the format
// "%s|%s|c%d|t%d|w%d|g%g|ss%g|se%g", appended without reflection
// because a proxy and a backend both render it on every request.
func (k Key) String() string {
	b := make([]byte, 0, len(k.Plat)+len(k.Fingerprint)+96)
	b = append(b, k.Plat...)
	b = append(b, '|')
	b = append(b, k.Fingerprint...)
	b = append(b, "|c"...)
	b = strconv.AppendInt(b, int64(k.Cores), 10)
	b = append(b, "|t"...)
	b = strconv.AppendInt(b, int64(k.Threads), 10)
	b = append(b, "|w"...)
	b = strconv.AppendInt(b, int64(k.Window), 10)
	b = append(b, "|g"...)
	b = strconv.AppendFloat(b, k.GapScale, 'g', -1, 64)
	b = append(b, "|ss"...)
	b = strconv.AppendFloat(b, k.SMTShare, 'g', -1, 64)
	b = append(b, "|se"...)
	b = strconv.AppendFloat(b, k.SMTExponent, 'g', -1, 64)
	return string(b)
}

// KeyOf canonicalizes cfg into its cache key. cacheable is false — and the
// Key meaningless — when the config opted out of caching: an empty
// Fingerprint (the generator's identity is unknown) or a ConfigureHierarchy
// hook (the run's behaviour is not a function of the key). An invalid
// config returns the validation error.
func KeyOf(cfg sim.Config) (key Key, cacheable bool, err error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return Key{}, false, err
	}
	return keyOfNormalized(norm)
}

func keyOfNormalized(norm sim.Config) (Key, bool, error) {
	if norm.Fingerprint == "" || norm.ConfigureHierarchy != nil {
		return Key{}, false, nil
	}
	return Key{
		Plat:        PlatformFingerprint(norm.Plat),
		Fingerprint: norm.Fingerprint,
		Cores:       norm.Cores,
		Threads:     norm.ThreadsPerCore,
		Window:      norm.Window,
		GapScale:    norm.GapScale,
		SMTShare:    norm.SMTShare,
		SMTExponent: norm.SMTExponent,
	}, true, nil
}

// PlatformFingerprint renders every simulation-relevant field of p,
// dereferencing the optional L3 and memory-side-cache blocks so two
// distinct platform values with equal contents fingerprint equally.
//
// The three paper platforms are rendered once, at package init: a p whose
// contents equal one of them gets that string back without a rendering.
// Anything else (an ablation's mutated copy) is rendered per call.
func PlatformFingerprint(p *platform.Platform) string {
	c := contentsOf(p)
	for i := range canonical {
		if canonical[i].contents == c {
			return canonical[i].fingerprint
		}
	}
	return renderPlatform(p)
}

// renderPlatform is the fingerprint format itself: p's fields as %+v, then
// the optional blocks' fields when present.
func renderPlatform(p *platform.Platform) string {
	flat := *p
	flat.L3, flat.MemCache = nil, nil
	s := fmt.Sprintf("%+v", flat)
	if p.L3 != nil {
		s += fmt.Sprintf("|L3=%+v", *p.L3)
	}
	if p.MemCache != nil {
		s += fmt.Sprintf("|MC=%+v", *p.MemCache)
	}
	return s
}

// platformContents is a platform's contents as one comparable value: the
// optional blocks are dereferenced, so two platforms with equal contents
// compare equal whatever their pointers. A NaN field never compares equal.
type platformContents struct {
	flat         platform.Platform // L3 and MemCache nil
	l3           platform.CacheConfig
	mc           platform.MemCacheConfig
	hasL3, hasMC bool
}

func contentsOf(p *platform.Platform) platformContents {
	c := platformContents{flat: *p}
	c.flat.L3, c.flat.MemCache = nil, nil
	if p.L3 != nil {
		c.l3, c.hasL3 = *p.L3, true
	}
	if p.MemCache != nil {
		c.mc, c.hasMC = *p.MemCache, true
	}
	return c
}

// canonical holds the fingerprints of platform.All(), fixed at init: a
// table of three that never grows, not a memo.
var canonical = func() []canonicalPlatform {
	var t []canonicalPlatform
	for _, p := range platform.All() {
		t = append(t, canonicalPlatform{contentsOf(p), renderPlatform(p)})
	}
	return t
}()

type canonicalPlatform struct {
	contents    platformContents
	fingerprint string
}

// Stats is a snapshot of a Runner's self-instrumentation.
type Stats struct {
	Hits     uint64 // served from cache or by joining an in-flight run
	Misses   uint64 // executed (and cached) on behalf of the caller
	Bypasses uint64 // uncacheable configs executed directly
	// Fallbacks counts cache entries poisoned by an injected fault that
	// were degraded to a direct re-execution.
	Fallbacks uint64
	// StaleServes counts expired cache entries knowingly served by
	// RunStale under brownout; Expirations counts expired entries Run
	// dropped and recomputed.
	StaleServes uint64
	Expirations uint64
	InFlight    int64 // simulations executing right now
	// Occupancy is the average number of simulations in flight since the
	// Runner was built: busy_seconds / uptime, undecayed.
	Occupancy float64
}

// entry is a cached result plus its completion time, so a TTL can
// distinguish fresh from expired without a second map, plus the encodings
// rendered from that result. Eviction, expiry and Forget drop all three.
type entry struct {
	res   *sim.Result
	at    time.Time
	views *views // nil on results no cache entry holds (bypass, fallback)
}

// views are the encodings RunRendered produced from one entry's result, at
// most one per owner and at most maxViews in all.
type views struct {
	mu   sync.Mutex
	list []view
}

type view struct {
	owner any
	body  []byte
}

// maxViews bounds the owners one entry keeps bytes for. A server is one
// owner per platform, and a process runs one server (a few in tests); a
// further owner still gets its answer, rendered per call.
const maxViews = 4

// get returns owner's encoding of res, rendering and keeping it on first
// use. render runs outside the lock; of concurrent first uses, the first
// to finish is kept and the others return it.
func (vs *views) get(owner any, res *sim.Result, render func(*sim.Result) ([]byte, error)) ([]byte, error) {
	vs.mu.Lock()
	body, ok := vs.find(owner)
	vs.mu.Unlock()
	if ok {
		return body, nil
	}
	body, err := render(res)
	if err != nil {
		return nil, err
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if kept, ok := vs.find(owner); ok {
		return kept, nil
	}
	if len(vs.list) < maxViews {
		vs.list = append(vs.list, view{owner, body})
	}
	return body, nil
}

func (vs *views) find(owner any) ([]byte, bool) {
	for _, v := range vs.list {
		if v.owner == owner {
			return v.body, true
		}
	}
	return nil, false
}

// Runner executes node simulations through a singleflight LRU cache.
// Cached *sim.Result values are shared between callers and must be treated
// as immutable.
type Runner struct {
	cache *engine.LRU[Key, entry]
	ttl   atomic.Int64 // nanoseconds; 0 = entries never expire

	hits        metrics.Counter
	misses      metrics.Counter
	bypasses    metrics.Counter
	fallbacks   metrics.Counter
	staleServes metrics.Counter
	expirations metrics.Counter
	occupancy   *metrics.Occupancy // simulations executing and their n_avg
	now         func() time.Time   // test hook; time.Now by default
}

// New builds a Runner retaining at most capacity completed results
// (capacity <= 0 means unbounded).
func New(capacity int) *Runner {
	return &Runner{cache: engine.NewLRU[Key, entry](capacity), occupancy: metrics.NewOccupancy(), now: time.Now}
}

// SetTTL bounds how long a cached result counts as fresh. Zero (the
// default) disables expiry entirely — the seed behaviour. With a TTL set,
// Run drops and recomputes expired entries, while RunStale may serve them
// marked stale when the brownout ladder asks for cheap answers.
func (r *Runner) SetTTL(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.ttl.Store(int64(d))
}

// expired reports whether e is past the TTL.
func (r *Runner) expired(e entry) bool {
	ttl := r.ttl.Load()
	return ttl > 0 && r.now().Sub(e.at) > time.Duration(ttl)
}

// defaultCapacity bounds the process-wide cache. A full six-table
// regeneration across three platforms needs ~90 distinct runs; 512 leaves
// room for sweeps and service traffic on top without unbounded growth.
const defaultCapacity = 512

var std = New(defaultCapacity)

// Default returns the process-wide Runner every layer shares; using it is
// what makes cross-caller deduplication (a service request joining a
// pipeline's in-flight run) happen.
func Default() *Runner { return std }

// Run executes cfg through the default Runner.
func Run(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	return std.Run(ctx, cfg)
}

// Run executes cfg, deduplicating against concurrent and past runs of the
// same canonical configuration. Uncacheable configs (empty Fingerprint or
// a ConfigureHierarchy hook) execute directly. The returned result may be
// shared with other callers; treat it as immutable.
func (r *Runner) Run(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	e, err := r.run(ctx, cfg)
	return e.res, err
}

// RunRendered is Run for a caller that answers with an encoding of the
// result: render(result) is kept beside the cached result, once per owner,
// and later runs of the same canonical config return the kept bytes
// without calling render. owner names what else the encoding depends on
// (a server's profile curve) and must be comparable. A result no cache
// entry holds (bypass, fault fallback) is rendered on every call. The
// bytes are shared; treat them as immutable.
func (r *Runner) RunRendered(ctx context.Context, cfg sim.Config, owner any, render func(*sim.Result) ([]byte, error)) ([]byte, error) {
	e, err := r.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if e.views == nil {
		return render(e.res)
	}
	return e.views.get(owner, e.res, render)
}

// run is Run and RunRendered's shared lookup, returning the whole entry.
func (r *Runner) run(ctx context.Context, cfg sim.Config) (entry, error) {
	// The "runner" span is the spine's own (exclusive) overhead —
	// canonicalization and cache bookkeeping — noted with the cache
	// outcome; the kernel itself reports as the "sim" stage from execute.
	note := "miss"
	a := trace.Begin(ctx, "runner")
	defer func() { a.End(note) }()
	norm, err := cfg.Normalized()
	if err != nil {
		note = "error"
		return entry{}, err
	}
	key, cacheable, err := keyOfNormalized(norm)
	if err != nil {
		note = "error"
		return entry{}, err
	}
	if !cacheable {
		note = "bypass"
		r.bypasses.Inc()
		res, err := r.execute(ctx, norm)
		return entry{res: res}, err
	}
	// The retry loop exists only for TTL expiry: a hit on an expired entry
	// drops it and goes around once more, which then misses and recomputes.
	// Concurrent re-seeding can cost at most one extra lap, so the bound is
	// a formality.
	for attempt := 0; ; attempt++ {
		e, hit, err := r.cache.Do(ctx, key, func(ctx context.Context) (entry, error) {
			res, err := r.execute(ctx, norm)
			return entry{res: res, at: r.now(), views: new(views)}, err
		})
		if err != nil {
			// Graceful degradation: a flight that failed because the fault
			// layer poisoned it (not because the config is bad or the context
			// expired) is retried as a direct, uncached run rather than
			// surfacing chaos to the caller. The failed flight was already
			// forgotten by the cache, so nothing stale lingers either way.
			if faults.IsFault(err) && ctx.Err() == nil {
				note = "fallback"
				r.fallbacks.Inc()
				res, err := r.execute(ctx, norm)
				return entry{res: res}, err
			}
			note = "error"
			return entry{}, err
		}
		if hit && r.expired(e) && attempt < 3 {
			r.expirations.Inc()
			r.cache.Forget(key)
			continue
		}
		if hit {
			note = "hit"
			r.hits.Inc()
		} else {
			r.misses.Inc()
		}
		return e, nil
	}
}

// RunStale is Run's brownout sibling: it serves any completed cache entry
// for cfg — fresh or expired — without ever waiting on an in-flight
// computation, and only pays for an execution when the cache holds nothing
// at all. The second return reports whether the answer is stale (past the
// TTL), which the caller must surface to its own caller as a degradation
// marker. Fresh answers and cache misses behave exactly like Run.
func (r *Runner) RunStale(ctx context.Context, cfg sim.Config) (res *sim.Result, stale bool, err error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, false, err
	}
	key, cacheable, err := keyOfNormalized(norm)
	if err != nil {
		return nil, false, err
	}
	if cacheable {
		if e, ok := r.cache.Peek(key); ok {
			if r.expired(e) {
				trace.Add(ctx, "runner", "stale", 0, 0)
				r.staleServes.Inc()
				return e.res, true, nil
			}
			trace.Add(ctx, "runner", "hit", 0, 0)
			r.hits.Inc()
			return e.res, false, nil
		}
	}
	res, err = r.Run(ctx, cfg)
	return res, false, err
}

func (r *Runner) execute(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	r.occupancy.Arrive()
	begin := time.Now()
	defer func() {
		// The kernel is a leaf stage: its span is the measured busy time
		// itself — the same interval the occupancy gauge integrates, so
		// the trace_stage_navg{stage="sim"} metric and
		// <prefix>_littles_occupancy must reconcile.
		trace.Add(ctx, "sim", "", 0, time.Since(begin))
		r.occupancy.Complete()
	}()
	switch f := faults.Global().Eval(FaultSite); f.Kind {
	case faults.KindLatency:
		f.Sleep(ctx)
	case faults.KindError:
		return nil, f.Err()
	}
	return sim.RunContext(ctx, cfg)
}

// Forget drops the cached result for cfg's canonical key, if any, so the
// next Run re-executes. Uncacheable configs are a no-op.
func (r *Runner) Forget(cfg sim.Config) {
	if key, cacheable, err := KeyOf(cfg); err == nil && cacheable {
		r.cache.Forget(key)
	}
}

// Len returns the number of cached (or in-flight) entries.
func (r *Runner) Len() int { return r.cache.Len() }

// Stats snapshots the Runner's counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Hits:        r.hits.Value(),
		Misses:      r.misses.Value(),
		Bypasses:    r.bypasses.Value(),
		Fallbacks:   r.fallbacks.Value(),
		StaleServes: r.staleServes.Value(),
		Expirations: r.expirations.Value(),
		InFlight:    r.occupancy.InFlight(),
		Occupancy:   r.occupancy.Mean(),
	}
}

// Register exposes the Runner's instrumentation on reg under the given
// metric-name prefix (e.g. "littleslaw_runner").
func (r *Runner) Register(reg *metrics.Registry, prefix string) {
	reg.DerivedCounter(prefix+"_cache_hits_total",
		"Simulations served from the runner cache or a shared in-flight run.",
		r.hits.Value)
	reg.DerivedCounter(prefix+"_cache_misses_total",
		"Simulations executed and cached by the runner.",
		r.misses.Value)
	reg.DerivedCounter(prefix+"_cache_bypass_total",
		"Uncacheable simulations executed directly (no fingerprint or hierarchy hook).",
		r.bypasses.Value)
	reg.DerivedCounter(prefix+"_fault_fallbacks_total",
		"Cached flights poisoned by an injected fault and degraded to a direct re-execution.",
		r.fallbacks.Value)
	reg.DerivedCounter(prefix+"_stale_serves_total",
		"Expired cache entries knowingly served by RunStale under brownout.",
		r.staleServes.Value)
	reg.DerivedCounter(prefix+"_expirations_total",
		"Expired cache entries dropped and recomputed by Run.",
		r.expirations.Value)
	reg.Derived(prefix+"_inflight",
		"Simulations executing right now (directly sampled).",
		func() float64 { return float64(r.occupancy.InFlight()) })
	reg.Derived(prefix+"_littles_occupancy",
		"Measured average simulations in flight: windowed time-average of the in-flight gauge (L = lambda*W).",
		r.occupancy.NAvg)
}
