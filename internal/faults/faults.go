// Package faults is a deterministic, seedable fault-injection layer: the
// instrument that turns "the stack should survive misbehaving dependencies"
// from a hope into a testable property. Call sites across the serving
// stack — the run spine, the engine pool, the admission queue, the
// llserved handlers, the stream monitor — name themselves (a *site*) and
// ask the process-wide Injector whether a fault fires here, now. Rules
// scope faults to sites (exact names or glob patterns), pick a kind —
// injected latency, a transient error, a panic, or a slow-drip delay per
// response chunk — and fire with a per-evaluation probability drawn from a
// per-site RNG derived from one seed, so a chaos run replays exactly.
//
// The layer is built to be a provable no-op when off: a disabled Injector
// answers every Eval with a single atomic load and no RNG draw, so
// enabling-then-disabling faults leaves the serving stack bit-identical to
// a binary that never knew about them. That property is pinned by the
// chaos end-to-end test.
package faults

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the failure mode a rule injects.
type Kind uint8

const (
	// KindNone is the zero Fault: nothing fires.
	KindNone Kind = iota
	// KindLatency sleeps for the rule's duration before the site proceeds.
	KindLatency
	// KindError makes the site fail with a transient *InjectedError.
	KindError
	// KindPanic makes the site panic (the stack's recovery paths convert
	// it to a 500 / PanicError downstream).
	KindPanic
	// KindDrip delays each response chunk by the rule's duration — a slow
	// consumer/producer, not an outright stall.
	KindDrip
)

var kindNames = map[Kind]string{
	KindNone:    "none",
	KindLatency: "latency",
	KindError:   "error",
	KindPanic:   "panic",
	KindDrip:    "drip",
}

// String names the kind the way the -faults spec spells it.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName parses a spec kind name.
func KindByName(s string) (Kind, error) {
	for k, name := range kindNames {
		if k != KindNone && name == s {
			return k, nil
		}
	}
	return KindNone, fmt.Errorf("faults: unknown kind %q (want latency, error, panic or drip)", s)
}

// Rule scopes one failure mode to a set of sites.
type Rule struct {
	// Site selects which call sites the rule applies to: an exact site
	// name ("runner.run") or a path.Match glob ("handler.*").
	Site string
	// Kind is the failure mode.
	Kind Kind
	// P is the per-evaluation firing probability in [0, 1].
	P float64
	// D is the injected delay for KindLatency and the per-chunk delay for
	// KindDrip; ignored for the other kinds.
	D time.Duration
}

func (r Rule) validate() error {
	if r.Site == "" {
		return errors.New("faults: rule with empty site")
	}
	if _, err := path.Match(r.Site, "x"); err != nil {
		return fmt.Errorf("faults: bad site pattern %q: %w", r.Site, err)
	}
	if r.Kind == KindNone {
		return fmt.Errorf("faults: rule for %q with no kind", r.Site)
	}
	if !(r.P >= 0 && r.P <= 1) {
		return fmt.Errorf("faults: rule for %q with probability %v outside [0, 1]", r.Site, r.P)
	}
	if (r.Kind == KindLatency || r.Kind == KindDrip) && r.D <= 0 {
		return fmt.Errorf("faults: %s rule for %q needs a positive duration", r.Kind, r.Site)
	}
	return nil
}

// ErrInjected is the sentinel under every injected error;
// errors.Is(err, ErrInjected) — or the IsFault shorthand — distinguishes
// chaos from a real failure, which is what the graceful-degradation paths
// key on.
var ErrInjected = errors.New("faults: injected fault")

// InjectedError is the transient error KindError surfaces at a site.
type InjectedError struct {
	// Site is the call site that failed.
	Site string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected transient error at %s", e.Site)
}

// Is makes errors.Is(err, ErrInjected) true for every InjectedError.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// IsFault reports whether err (anywhere in its chain) was injected by this
// package.
func IsFault(err error) bool { return errors.Is(err, ErrInjected) }

// Fault is one evaluation's outcome. The zero value means "no fault"; the
// call site switches on Kind and uses the helper for its mode.
type Fault struct {
	// Kind is the failure mode that fired (KindNone = proceed normally).
	Kind Kind
	// D is the injected delay (KindLatency) or per-chunk delay (KindDrip).
	D time.Duration
	// Site is the evaluated call site (set whenever Kind != KindNone).
	Site string
}

// Err returns the transient error a KindError fault injects (nil for any
// other kind, so `if err := f.Err(); err != nil` composes).
func (f Fault) Err() error {
	if f.Kind != KindError {
		return nil
	}
	return &InjectedError{Site: f.Site}
}

// Sleep blocks for the fault's delay or until ctx expires, whichever comes
// first. A no-op for kinds without a delay.
func (f Fault) Sleep(ctx context.Context) {
	if f.D <= 0 {
		return
	}
	t := time.NewTimer(f.D)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// PanicValue is what a KindPanic site should panic with — a recognizable
// marker the recovery layers can report.
func (f Fault) PanicValue() any {
	return fmt.Sprintf("faults: injected panic at %s", f.Site)
}

// site is the per-call-site state: the rules that match it, its own
// deterministic RNG stream, and fire counters.
type site struct {
	mu    sync.Mutex
	rules []Rule // matching rules, in configuration order
	rng   *rand.Rand
	fired map[Kind]uint64
	evals uint64
}

// SiteCount reports one site's injection tally for the admin endpoint and
// the chaos tests.
type SiteCount struct {
	Site  string
	Evals uint64
	Fired map[string]uint64 // kind name → count
}

// Injector evaluates fault rules at named call sites. All methods are safe
// for concurrent use. The zero value is unusable; construct with New or
// use the process-wide Global().
type Injector struct {
	enabled atomic.Bool

	mu    sync.Mutex
	seed  int64
	rules []Rule
	sites map[string]*site
}

// New builds an Injector with the given seed and rules, enabled iff it has
// at least one rule.
func New(seed int64, rules ...Rule) (*Injector, error) {
	in := &Injector{sites: map[string]*site{}}
	if err := in.Configure(seed, rules); err != nil {
		return nil, err
	}
	return in, nil
}

// global is the process-wide injector every instrumented layer consults.
// It starts empty and disabled, so a process that never configures faults
// pays one atomic load per site evaluation and nothing else.
var global = func() *Injector {
	in, _ := New(0)
	return in
}()

// Global returns the process-wide Injector. The -faults flag of llserved and
// llproxy and the /v1/faults admin endpoint configure it; the instrumented layers
// (runner, engine, limit, service, stream) evaluate against it.
func Global() *Injector { return global }

// Configure replaces the injector's seed and rule set, resets every
// per-site RNG stream and counter, and enables the injector iff rules is
// non-empty. Two Configure calls with the same seed and rules replay the
// same fault schedule at every site.
func (i *Injector) Configure(seed int64, rules []Rule) error {
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return err
		}
	}
	i.mu.Lock()
	i.seed = seed
	i.rules = append([]Rule(nil), rules...)
	i.sites = map[string]*site{}
	i.mu.Unlock()
	i.enabled.Store(len(rules) > 0)
	return nil
}

// ConfigureSpec is Configure from a spec in the -faults grammar (see
// ParseSpec). A spec that does not parse or validate leaves the injector
// as it was.
func (i *Injector) ConfigureSpec(spec string) error {
	seed, rules, err := ParseSpec(spec)
	if err != nil {
		return err
	}
	return i.Configure(seed, rules)
}

// SetEnabled toggles evaluation without touching the rule set: a runtime
// kill switch. Re-enabling does not reset the RNG streams; use Configure
// to restart a schedule from its seed.
func (i *Injector) SetEnabled(on bool) { i.enabled.Store(on) }

// Enabled reports whether evaluations can fire.
func (i *Injector) Enabled() bool { return i.enabled.Load() }

// Seed returns the configured seed.
func (i *Injector) Seed() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.seed
}

// Rules returns a copy of the configured rules.
func (i *Injector) Rules() []Rule {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Rule(nil), i.rules...)
}

// Eval asks whether a fault fires at the named site. Disabled injectors
// answer with one atomic load and draw no randomness — the provable-no-op
// property the chaos test pins. Enabled injectors evaluate the site's
// matching rules in configuration order against the site's own seeded RNG
// stream (one draw per rule per evaluation, so a site's fault schedule is
// a pure function of the seed and its evaluation count); the first rule
// whose draw lands under its probability fires.
func (i *Injector) Eval(siteName string) Fault {
	if !i.enabled.Load() {
		return Fault{}
	}
	s := i.site(siteName)
	if s == nil {
		return Fault{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evals++
	for _, r := range s.rules {
		if s.rng.Float64() < r.P {
			s.fired[r.Kind]++
			return Fault{Kind: r.Kind, D: r.D, Site: siteName}
		}
	}
	return Fault{}
}

// site returns the per-site state, building it (matched rules + derived
// RNG stream) on first evaluation. Returns nil when no rule matches, and
// caches that too.
func (i *Injector) site(name string) *site {
	i.mu.Lock()
	defer i.mu.Unlock()
	if s, ok := i.sites[name]; ok {
		return s
	}
	var matched []Rule
	for _, r := range i.rules {
		if r.Site == name {
			matched = append(matched, r)
			continue
		}
		if ok, _ := path.Match(r.Site, name); ok {
			matched = append(matched, r)
		}
	}
	var s *site
	if len(matched) > 0 {
		// Each site gets an independent deterministic stream: the seed
		// folded with the site name, so concurrency elsewhere cannot
		// perturb this site's schedule.
		h := fnv.New64a()
		h.Write([]byte(name))
		s = &site{
			rules: matched,
			rng:   rand.New(rand.NewSource(i.seed ^ int64(h.Sum64()))),
			fired: map[Kind]uint64{},
		}
	}
	i.sites[name] = s
	return s
}

// Counts snapshots every evaluated site's tally, sorted by site name.
func (i *Injector) Counts() []SiteCount {
	i.mu.Lock()
	names := make([]string, 0, len(i.sites))
	for name, s := range i.sites {
		if s != nil {
			names = append(names, name)
		}
	}
	sites := make([]*site, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		sites = append(sites, i.sites[name])
	}
	i.mu.Unlock()

	out := make([]SiteCount, 0, len(names))
	for idx, s := range sites {
		s.mu.Lock()
		sc := SiteCount{Site: names[idx], Evals: s.evals, Fired: map[string]uint64{}}
		for k, n := range s.fired {
			sc.Fired[k.String()] = n
		}
		s.mu.Unlock()
		out = append(out, sc)
	}
	return out
}

// FiredTotal sums injected faults across all sites and kinds.
func (i *Injector) FiredTotal() uint64 {
	var total uint64
	for _, sc := range i.Counts() {
		for _, n := range sc.Fired {
			total += n
		}
	}
	return total
}

// ParseSpec parses the -faults flag grammar: semicolon-separated clauses,
// each either `seed=N` or `site=kind:p[:duration]`.
//
//	seed=42;handler.*=error:0.2;runner.run=latency:0.1:50ms;stream.serve=drip:0.05:20ms
//
// An empty spec returns no rules (seed 0). Kinds without a duration field
// are error and panic; latency and drip require one.
func ParseSpec(spec string) (seed int64, rules []Rule, err error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return 0, nil, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		siteName, val, ok := strings.Cut(clause, "=")
		if !ok {
			return 0, nil, fmt.Errorf("faults: clause %q is not site=kind:p or seed=N", clause)
		}
		siteName, val = strings.TrimSpace(siteName), strings.TrimSpace(val)
		if siteName == "seed" {
			if _, err := fmt.Sscanf(val, "%d", &seed); err != nil {
				return 0, nil, fmt.Errorf("faults: bad seed %q", val)
			}
			continue
		}
		parts := strings.Split(val, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return 0, nil, fmt.Errorf("faults: clause %q wants site=kind:p[:duration]", clause)
		}
		kind, err := KindByName(parts[0])
		if err != nil {
			return 0, nil, err
		}
		var p float64
		if _, err := fmt.Sscanf(parts[1], "%g", &p); err != nil {
			return 0, nil, fmt.Errorf("faults: bad probability %q in %q", parts[1], clause)
		}
		r := Rule{Site: siteName, Kind: kind, P: p}
		if len(parts) == 3 {
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return 0, nil, fmt.Errorf("faults: bad duration %q in %q", parts[2], clause)
			}
			r.D = d
		}
		if err := r.validate(); err != nil {
			return 0, nil, err
		}
		rules = append(rules, r)
	}
	return seed, rules, nil
}

// FormatSpec renders a seed and rules back into the flag grammar, the
// round-trip the admin endpoint reports.
func FormatSpec(seed int64, rules []Rule) string {
	parts := make([]string, 0, len(rules)+1)
	if seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", seed))
	}
	for _, r := range rules {
		clause := fmt.Sprintf("%s=%s:%g", r.Site, r.Kind, r.P)
		if r.D > 0 {
			clause += ":" + r.D.String()
		}
		parts = append(parts, clause)
	}
	return strings.Join(parts, ";")
}
