// Brownout wiring for the service: the pressure signal fed to the
// controller, the per-route criticality tiers, the /v1/brownout admin
// surface, and the drain-aware shutdown lifecycle. The controller itself
// (the hysteresis ladder) lives in internal/brownout; this file is where
// its mode becomes behaviour — which requests shed, which answers degrade,
// and what a SIGTERM walks down.
package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/stream"
	"littleslaw/internal/trace"
)

// modeKey carries the request's brownout mode through context so
// resolveAnalyze can pick the execution path (kernel, stale cache,
// analytic) the envelope decided on.
type modeKey struct{}

func withMode(ctx context.Context, m brownout.Mode) context.Context {
	return context.WithValue(ctx, modeKey{}, m)
}

func modeFrom(ctx context.Context) brownout.Mode {
	if m, ok := ctx.Value(modeKey{}).(brownout.Mode); ok {
		return m
	}
	return brownout.B0
}

// Route criticality tiers. Admin routes (healthz, metrics, /v1/faults,
// /v1/brownout, /v1/trace/{id}) never shed — they are registered outside
// the envelope, and the tools for diagnosing an overloaded or draining
// server must answer during overload and drain. Critical routes are the
// analysis surface the ladder exists to keep alive; everything else is
// non-critical and sheds first.
var criticalRoutes = map[string]bool{
	"analyze":      true,
	"advise":       true,
	"characterize": true,
	"platforms":    true,
}

// shedAt returns the lowest brownout mode at which the named route sheds.
func shedAt(route string) brownout.Mode {
	if criticalRoutes[route] {
		return brownout.B4
	}
	return brownout.B3
}

// pressure is the scalar the brownout controller consumes: the limiter's
// occupancy normalized by its ceiling. The numerator takes
// max(inflight+queued, n_avg): n_avg (the windowed mean of admitted work in
// flight) remembers recent load but cannot pass the ceiling admission caps
// it at, while inflight+queued sees the queue building — together they
// keep the signal monotone in offered load up to ceiling+queue, which is
// what gives the upper ladder rungs something to trigger on.
func (s *Server) pressure() float64 {
	if s.limiter == nil {
		return 0
	}
	snap := s.limiter.Snapshot()
	return max(float64(snap.InFlight+snap.QueueDepth), snap.NAvg) / snap.Ceiling
}

// observeMode samples pressure into the controller and returns the
// effective mode — B0 when brownout is disabled.
func (s *Server) observeMode() brownout.Mode {
	if s.brownout == nil {
		return brownout.B0
	}
	return s.brownout.Observe(s.pressure())
}

// BrownoutState is the body of GET /v1/brownout.
type BrownoutState struct {
	Mode     string  `json:"mode"`
	Label    string  `json:"label"`
	Pinned   bool    `json:"pinned"`
	Pressure float64 `json:"pressure"`
	DwellS   float64 `json:"dwell_s"`
	// Transitions counts mode changes (both directions, including pins).
	Transitions uint64 `json:"transitions"`
	// TimeInModeS is cumulative wall seconds per rung, keyed "B0".."B4".
	TimeInModeS map[string]float64 `json:"time_in_mode_s"`
	Enter       []float64          `json:"enter_thresholds"`
	Exit        []float64          `json:"exit_thresholds"`
	DwellUpS    float64            `json:"dwell_up_s"`
	DwellDownS  float64            `json:"dwell_down_s"`
	Draining    bool               `json:"draining,omitempty"`
}

// BrownoutRequest is the body of POST /v1/brownout: exactly one of Pin (a
// mode name, "B2" or "analytic") or Unpin.
type BrownoutRequest struct {
	Pin   string `json:"pin,omitempty"`
	Unpin bool   `json:"unpin,omitempty"`
}

func (s *Server) brownoutState() BrownoutState {
	snap := s.brownout.Snapshot()
	st := BrownoutState{
		Mode:        snap.Mode.String(),
		Label:       snap.Mode.Label(),
		Pinned:      snap.Pinned,
		Pressure:    snap.Pressure,
		DwellS:      snap.Dwell.Seconds(),
		Transitions: snap.Transitions,
		TimeInModeS: make(map[string]float64, brownout.NumModes),
		Enter:       snap.Config.Enter[:],
		Exit:        snap.Config.Exit[:],
		DwellUpS:    snap.Config.DwellUp.Seconds(),
		DwellDownS:  snap.Config.DwellDown.Seconds(),
		Draining:    s.Draining(),
	}
	for m := brownout.B0; m < brownout.NumModes; m++ {
		st.TimeInModeS[m.String()] = snap.TimeIn[m].Seconds()
	}
	return st
}

// handleBrownoutGet is GET /v1/brownout: the controller's live state.
// Registered outside the limiter and the envelope — an ops surface must
// answer while the server sheds.
func (s *Server) handleBrownoutGet(w http.ResponseWriter, r *http.Request) {
	if s.brownout == nil {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "brownout controller disabled"})
		return
	}
	// Reading state is also a sample: keep the ladder moving even when all
	// traffic is coming through admin probes.
	s.observeMode()
	s.writeJSON(w, http.StatusOK, s.brownoutState())
}

// handleBrownoutPost is POST /v1/brownout: pin a mode or unpin.
func (s *Server) handleBrownoutPost(w http.ResponseWriter, r *http.Request) {
	if s.brownout == nil {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "brownout controller disabled"})
		return
	}
	body, err := readBody(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	var req BrownoutRequest
	if err := decodeStrict(body, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if (req.Pin == "") == !req.Unpin {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "exactly one of pin or unpin is required"})
		return
	}
	if req.Unpin {
		s.brownout.Unpin()
	} else {
		m, err := brownout.Parse(req.Pin)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		if err := s.brownout.Pin(m); err != nil {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, s.brownoutState())
}

// ---- drain lifecycle ----

// trackStream registers a live ad-hoc watch broker for drain notification;
// the returned func removes it when the originating request completes.
// Named brokers stay in s.watches for history replay and are notified from
// there instead.
func (s *Server) trackStream(br *stream.Broker) func() {
	s.liveMu.Lock()
	s.liveStreams[br] = struct{}{}
	s.liveMu.Unlock()
	return func() {
		s.liveMu.Lock()
		delete(s.liveStreams, br)
		s.liveMu.Unlock()
	}
}

// BeginDrain flips the server into its terminal mode: /healthz reports
// "draining" (the proxy's prober stops routing here), every /v1 request —
// including streams — sheds with 503 + Retry-After, and every live watch
// and trace-tail subscriber receives a terminal "shutdown" event before
// its stream closes, so clients can distinguish a graceful close from a
// cut connection. Idempotent; it never blocks on subscribers (brokers are
// drop-oldest). The caller then waits for InFlight to reach zero (up to
// its drain deadline) before closing the listener.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		var brokers []*stream.Broker
		s.watchMu.Lock()
		for _, br := range s.watches {
			brokers = append(brokers, br)
		}
		s.watchMu.Unlock()
		s.liveMu.Lock()
		for br := range s.liveStreams {
			brokers = append(brokers, br)
		}
		s.liveMu.Unlock()
		for _, br := range brokers {
			br.Publish(stream.Event{Kind: "shutdown"})
			br.Close()
		}
		s.traceBroker.Publish(trace.Record{Terminal: "shutdown"})
		s.traceBroker.Close()
	})
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of requests currently inside the envelope —
// the quantity a draining main loop polls to zero.
func (s *Server) InFlight() int64 { return s.occupancy.InFlight() }

// brownoutRetryAfter is the Retry-After hint on tier sheds: the default
// DwellDown — the soonest the ladder could possibly have descended a rung.
const brownoutRetryAfter = 2 * time.Second

// drainRetryAfter is the Retry-After hint on drain sheds: long enough for
// a rolling restart's replacement process to come up, short enough that a
// client retrying through a proxy fails over immediately (503 is
// failover-worthy there) and a direct client is not parked.
const drainRetryAfter = time.Second

func errDraining() error {
	return failWithRetry(http.StatusServiceUnavailable,
		fmt.Errorf("server is draining for shutdown"), drainRetryAfter)
}
