// The /v1/faults admin endpoints: runtime control of the fault-injection
// layer. GET reports the live configuration and per-site injection tallies;
// POST reconfigures (a full spec replaces seed + rules and restarts every
// site's deterministic schedule) or toggles the kill switch without
// touching the rule set. Both sit outside the admission controller so the
// kill switch answers even while the limiter sheds everything.
package service

import (
	"fmt"
	"net/http"
	"time"

	"littleslaw/internal/faults"
)

// FaultRuleJSON is one injection rule over the wire.
type FaultRuleJSON struct {
	Site string  `json:"site"`
	Kind string  `json:"kind"`
	P    float64 `json:"p"`
	// DurationMS is the injected (or per-chunk) delay in milliseconds for
	// latency and drip rules.
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// FaultSiteJSON is one site's injection tally.
type FaultSiteJSON struct {
	Site  string            `json:"site"`
	Evals uint64            `json:"evals"`
	Fired map[string]uint64 `json:"fired,omitempty"`
}

// FaultsResponse is the GET /v1/faults (and POST echo) body.
type FaultsResponse struct {
	Enabled bool            `json:"enabled"`
	Seed    int64           `json:"seed"`
	Spec    string          `json:"spec"`
	Rules   []FaultRuleJSON `json:"rules,omitempty"`
	Sites   []FaultSiteJSON `json:"sites,omitempty"`
}

// FaultsRequest is the POST /v1/faults body. Exactly one of Spec or
// Enabled must be set: Spec reconfigures (seed + rules, resetting every
// site's schedule; an empty-rule spec such as "seed=1" disables), Enabled
// toggles evaluation in place.
type FaultsRequest struct {
	Spec    *string `json:"spec,omitempty"`
	Enabled *bool   `json:"enabled,omitempty"`
}

func (s *Server) faultsResponse() FaultsResponse {
	seed, rules := s.faults.Seed(), s.faults.Rules()
	resp := FaultsResponse{
		Enabled: s.faults.Enabled(),
		Seed:    seed,
		Spec:    faults.FormatSpec(seed, rules),
	}
	for _, r := range rules {
		resp.Rules = append(resp.Rules, FaultRuleJSON{
			Site:       r.Site,
			Kind:       r.Kind.String(),
			P:          r.P,
			DurationMS: float64(r.D) / float64(time.Millisecond),
		})
	}
	for _, sc := range s.faults.Counts() {
		resp.Sites = append(resp.Sites, FaultSiteJSON{Site: sc.Site, Evals: sc.Evals, Fired: sc.Fired})
	}
	return resp
}

func (s *Server) handleFaultsGet(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, s.faultsResponse())
}

func (s *Server) handleFaultsPost(w http.ResponseWriter, r *http.Request) error {
	body, err := ReadBody(r)
	if err != nil {
		return err
	}
	var req FaultsRequest
	if err := decodeStrict(body, &req); err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	switch {
	case (req.Spec == nil) == (req.Enabled == nil):
		return failWith(http.StatusBadRequest, fmt.Errorf("exactly one of spec or enabled is required"))
	case req.Spec != nil:
		seed, rules, err := faults.ParseSpec(*req.Spec)
		if err == nil {
			err = s.faults.Configure(seed, rules)
		}
		if err != nil {
			return failWith(http.StatusBadRequest, err)
		}
	default:
		s.faults.SetEnabled(*req.Enabled)
	}
	s.WriteJSON(w, http.StatusOK, s.faultsResponse())
	return nil
}
