// Package brownout is the degradation ladder: the controller that turns
// the spine's measured Little's-Law occupancy into an explicit
// serving mode. Where the admission limiter answers "this request: yes or
// no", brownout answers the coarser, slower question "what quality of
// service can the whole server afford right now" — and steps through
// cheaper-but-still-correct answers before it sheds anything:
//
//	B0 full       every request runs the discrete-event kernel
//	B1 stale      the runner may serve expired cache entries, marked Stale
//	B2 analytic   analyze/advise answered by the closed-form fixed point
//	              (service.predict) instead of the kernel, marked Approximate
//	B3 partial    non-critical routes (tables, traces, watch) shed; the
//	              critical analyze/advise surface stays alive
//	B4 shed       everything but admin endpoints sheds
//
// The transition rule is deliberately boring: a pure function of the
// current mode, the time spent in it, and one scalar pressure sample
// (occupancy / ceiling). Hysteresis comes from two mechanisms that
// together make flapping impossible by construction: each rung has a
// separate enter and exit threshold (Exit[i] < Enter[i], so the pressure
// band between them is a dead zone in both directions), and a transition
// in either direction only fires after the mode has dwelled at least
// DwellUp/DwellDown — so opposite-direction transitions are always at
// least min(DwellUp, DwellDown) apart.
package brownout

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"littleslaw/internal/metrics"
)

// Mode is a rung on the degradation ladder. Higher is more degraded.
type Mode int

const (
	// B0 serves full-fidelity simulation answers.
	B0 Mode = iota
	// B1 lets the runner serve expired cache entries, marked Stale.
	B1
	// B2 answers analyze/advise with the closed-form analytic model,
	// marked Approximate.
	B2
	// B3 sheds non-critical routes while analyze/advise stay alive.
	B3
	// B4 sheds everything except admin endpoints.
	B4
)

// NumModes is the ladder length; modes are B0..NumModes-1.
const NumModes = 5

// String renders the rung name ("B0".."B4").
func (m Mode) String() string {
	if m < B0 || m >= NumModes {
		return fmt.Sprintf("B?(%d)", int(m))
	}
	return "B" + strconv.Itoa(int(m))
}

// Label is the human name for what the mode serves — the value llload
// buckets goodput by.
func (m Mode) Label() string {
	switch m {
	case B0:
		return "full"
	case B1:
		return "stale"
	case B2:
		return "analytic"
	case B3:
		return "partial-shed"
	case B4:
		return "shed"
	}
	return "unknown"
}

// Degraded reports whether responses served in this mode must carry the
// Degraded marker: everything above B0.
func (m Mode) Degraded() bool { return m > B0 }

// Parse accepts a rung name ("B2", case-insensitive), a label
// ("analytic"), or a bare digit ("2").
func Parse(s string) (Mode, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	for m := B0; m < NumModes; m++ {
		if t == strings.ToLower(m.String()) || t == m.Label() || t == strconv.Itoa(int(m)) {
			return m, nil
		}
	}
	return B0, fmt.Errorf("brownout: unknown mode %q (want B0..B4 or full/stale/analytic/partial-shed/shed)", s)
}

// Config parameterizes the ladder. Enter[i] is the pressure at or above
// which mode Mode(i) escalates to Mode(i+1); Exit[i] is the pressure below
// which Mode(i+1) de-escalates back to Mode(i). Pressure is the caller's
// normalized occupancy — the service uses (inflight+queued) / ceiling, so
// 1.0 means "at the admission ceiling" and 3.0 means "ceiling plus a full
// queue".
type Config struct {
	Enter [NumModes - 1]float64 // escalation thresholds; strictly increasing
	Exit  [NumModes - 1]float64 // de-escalation thresholds; Exit[i] < Enter[i]

	// DwellUp is the minimum time in a mode before escalating out of it;
	// DwellDown the minimum before de-escalating. DwellDown should be the
	// larger: climbing fast protects the server, descending slowly
	// protects against flapping.
	DwellUp   time.Duration
	DwellDown time.Duration

	// Now substitutes the clock in tests.
	Now func() time.Time
}

// DefaultConfig returns the ladder tuning the service ships with. The
// enter rungs track the limiter's shedding geometry: 1.0 is the admission
// ceiling itself (requests start queueing), 3.0 is ceiling plus the
// default 2×ceiling queue (nothing more can even wait — full shed is all
// that is left).
func DefaultConfig() Config {
	return Config{
		Enter:     [NumModes - 1]float64{1.0, 1.5, 2.25, 3.0},
		Exit:      [NumModes - 1]float64{0.7, 1.1, 1.7, 2.4},
		DwellUp:   500 * time.Millisecond,
		DwellDown: 2 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	var zero [NumModes - 1]float64
	if c.Enter == zero {
		c.Enter = def.Enter
	}
	if c.Exit == zero {
		c.Exit = def.Exit
	}
	if c.DwellUp == 0 {
		c.DwellUp = def.DwellUp
	}
	if c.DwellDown == 0 {
		c.DwellDown = def.DwellDown
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Validate checks the hysteresis invariants: thresholds strictly
// increasing along the ladder, every exit strictly below its enter (the
// dead band), and positive dwells.
func (c Config) Validate() error {
	for i := 0; i < NumModes-1; i++ {
		if c.Exit[i] >= c.Enter[i] {
			return fmt.Errorf("brownout: Exit[%d]=%g must be < Enter[%d]=%g (hysteresis dead band)", i, c.Exit[i], i, c.Enter[i])
		}
		if i > 0 {
			if c.Enter[i] <= c.Enter[i-1] {
				return fmt.Errorf("brownout: Enter thresholds must be strictly increasing (Enter[%d]=%g <= Enter[%d]=%g)", i, c.Enter[i], i-1, c.Enter[i-1])
			}
			if c.Exit[i] <= c.Exit[i-1] {
				return fmt.Errorf("brownout: Exit thresholds must be strictly increasing (Exit[%d]=%g <= Exit[%d]=%g)", i, c.Exit[i], i-1, c.Exit[i-1])
			}
		}
	}
	if c.DwellUp <= 0 || c.DwellDown <= 0 {
		return fmt.Errorf("brownout: dwells must be positive (up %s, down %s)", c.DwellUp, c.DwellDown)
	}
	return nil
}

// Decide is the whole transition rule: given the current mode, how long
// the controller has dwelled in it, and one pressure sample, return the
// next mode. It is a pure function — no clock, no state — which is what
// makes the hysteresis properties provable by enumeration:
//
//   - it moves at most one rung per call, so a sudden spike still visits
//     B1 and B2 (and their cheaper answers) on the way up;
//   - it escalates only after DwellUp in the current mode and de-escalates
//     only after DwellDown, so opposite-direction transitions can never
//     share a dwell window;
//   - with Exit[i] < Enter[i], no single pressure value satisfies both the
//     escalate and de-escalate conditions, so the same input can never
//     oscillate.
func Decide(cur Mode, dwell time.Duration, pressure float64, cfg Config) Mode {
	if cur < B0 {
		cur = B0
	}
	if cur >= NumModes {
		cur = NumModes - 1
	}
	if cur < NumModes-1 && pressure >= cfg.Enter[cur] && dwell >= cfg.DwellUp {
		return cur + 1
	}
	if cur > B0 && pressure < cfg.Exit[cur-1] && dwell >= cfg.DwellDown {
		return cur - 1
	}
	return cur
}

// Snapshot is a point-in-time view of a Controller for /v1/brownout and
// tests.
type Snapshot struct {
	Mode        Mode
	Pinned      bool
	Pressure    float64 // last observed sample
	Dwell       time.Duration
	Transitions uint64
	TimeIn      [NumModes]time.Duration
	Config      Config
}

// Controller owns the mode state machine: feed it pressure samples with
// Observe and it walks the ladder per Decide, accounting time-in-mode and
// transition counts along the way. Ops can Pin a mode (freezing Observe)
// and Unpin to resume. All methods are safe for concurrent use; Observe is
// cheap enough to call per request.
type Controller struct {
	cfg Config

	mu           sync.Mutex
	mode         Mode
	pinned       bool
	enteredAt    time.Time // when the current mode was entered
	lastAccrue   time.Time
	lastPressure float64
	transitions  uint64
	timeIn       [NumModes]time.Duration
}

// NewController builds a controller at B0. Zero fields of cfg take
// defaults; invalid thresholds return an error rather than a controller
// that could flap.
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	now := cfg.Now()
	return &Controller{cfg: cfg, enteredAt: now, lastAccrue: now}, nil
}

// accrueLocked charges wall time since the last bookkeeping event to the
// current mode.
func (c *Controller) accrueLocked(now time.Time) {
	if d := now.Sub(c.lastAccrue); d > 0 {
		c.timeIn[c.mode] += d
	}
	c.lastAccrue = now
}

// Observe feeds one pressure sample and returns the effective mode. While
// pinned the sample is recorded but ignored.
func (c *Controller) Observe(pressure float64) Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.accrueLocked(now)
	c.lastPressure = pressure
	if c.pinned {
		return c.mode
	}
	next := Decide(c.mode, now.Sub(c.enteredAt), pressure, c.cfg)
	if next != c.mode {
		c.mode = next
		c.enteredAt = now
		c.transitions++
	}
	return c.mode
}

// Mode returns the current mode without feeding a sample.
func (c *Controller) Mode() Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// Pin forces mode m and freezes Observe until Unpin. Pinning is an ops
// override (forcing B2 ahead of a known load spike, forcing B0 to debug),
// so it bypasses dwell rules; the jump still counts as a transition when
// the mode actually changes.
func (c *Controller) Pin(m Mode) error {
	if m < B0 || m >= NumModes {
		return fmt.Errorf("brownout: cannot pin %v", m)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.accrueLocked(now)
	if c.mode != m {
		c.mode = m
		c.enteredAt = now
		c.transitions++
	}
	c.pinned = true
	return nil
}

// Unpin resumes automatic control from the current (previously pinned)
// mode. The dwell clock restarts so the controller cannot instantly jump
// off the rung ops just released.
func (c *Controller) Unpin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pinned {
		return
	}
	now := c.cfg.Now()
	c.accrueLocked(now)
	c.pinned = false
	c.enteredAt = now
}

// Snapshot returns the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.accrueLocked(now)
	return Snapshot{
		Mode:        c.mode,
		Pinned:      c.pinned,
		Pressure:    c.lastPressure,
		Dwell:       now.Sub(c.enteredAt),
		Transitions: c.transitions,
		TimeIn:      c.timeIn,
		Config:      c.cfg,
	}
}

// Register exposes the controller on reg under prefix: the current rung as
// a gauge (0–4), whether it is pinned, total transitions, and cumulative
// time spent in each mode.
func (c *Controller) Register(reg *metrics.Registry, prefix string) {
	reg.Derived(prefix+"_mode",
		"Current brownout rung: 0=full, 1=stale, 2=analytic, 3=partial-shed, 4=shed.",
		func() float64 { return float64(c.Mode()) })
	reg.Derived(prefix+"_pinned",
		"1 when the brownout mode is pinned by an operator, else 0.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.pinned {
				return 1
			}
			return 0
		})
	reg.DerivedCounter(prefix+"_transitions_total",
		"Brownout mode transitions since start (both directions, including pins).",
		func() uint64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.transitions
		})
	reg.DerivedVec(prefix+"_time_in_mode_seconds",
		"Cumulative wall time spent in each brownout mode.",
		"mode",
		func() map[string]float64 {
			snap := c.Snapshot()
			out := make(map[string]float64, NumModes)
			for m := B0; m < NumModes; m++ {
				out[m.String()] = snap.TimeIn[m].Seconds()
			}
			return out
		})
}
