// Brownout wiring for the service: the pressure signal fed to the
// controller, the per-route criticality tiers, the /v1/brownout admin
// surface, and the drain-aware shutdown lifecycle. The controller itself
// (the hysteresis ladder) lives in internal/brownout; this file is where
// its mode becomes behaviour — which requests shed, which answers degrade,
// and what a SIGTERM walks down.
package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/stream"
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

// pressure is the scalar the brownout controller consumes: what the
// limiter holds and the queue behind it, over its ceiling — 1.0 at the
// ceiling, 3.0 at ceiling plus the default full queue. The windowed n_avg
// is not in it: it never passes the ceiling, so it could only hold B1 after
// the load has gone, and the ladder's memory is DwellDown.
func (s *Server) pressure() float64 {
	if s.limiter == nil {
		return 0
	}
	snap := s.limiter.Snapshot()
	return float64(snap.InFlight+snap.QueueDepth) / snap.Ceiling
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
func (s *Server) handleBrownoutGet(w http.ResponseWriter, r *http.Request) error {
	if s.brownout == nil {
		return errBrownoutDisabled
	}
	// Reading state is also a sample: keep the ladder moving even when all
	// traffic is coming through admin probes.
	s.observeMode()
	s.WriteJSON(w, http.StatusOK, s.brownoutState())
	return nil
}

// handleBrownoutPost is POST /v1/brownout: pin a mode or unpin.
func (s *Server) handleBrownoutPost(w http.ResponseWriter, r *http.Request) error {
	if s.brownout == nil {
		return errBrownoutDisabled
	}
	body, err := ReadBody(r)
	if err != nil {
		return err
	}
	var req BrownoutRequest
	if err := decodeStrict(body, &req); err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	if (req.Pin == "") == !req.Unpin {
		return failWith(http.StatusBadRequest, errors.New("exactly one of pin or unpin is required"))
	}
	if req.Unpin {
		s.brownout.Unpin()
	} else {
		m, err := brownout.Parse(req.Pin)
		if err == nil {
			err = s.brownout.Pin(m)
		}
		if err != nil {
			return failWith(http.StatusBadRequest, err)
		}
	}
	s.WriteJSON(w, http.StatusOK, s.brownoutState())
	return nil
}

var errBrownoutDisabled = failWith(http.StatusNotFound, errors.New("brownout controller disabled"))

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

// endStreams is the server's part of BeginDrain: every live watch
// subscriber receives a terminal "shutdown" event before its stream
// closes, so clients can distinguish a graceful close from a cut
// connection.
func (s *Server) endStreams() {
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
}

// brownoutRetryAfter is the Retry-After hint on tier sheds: the default
// DwellDown — the soonest the ladder could possibly have descended a rung.
const brownoutRetryAfter = 2 * time.Second
