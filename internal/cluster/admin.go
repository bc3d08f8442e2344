package cluster

import (
	"encoding/json"
	"net/http"

	"littleslaw/internal/buildinfo"
	"littleslaw/internal/service"
)

// handleFaultsFanout relays /v1/faults to every backend — chaos control
// must reach the whole fleet, breaker state notwithstanding (an "open"
// backend's admin plane may well be reachable even while its data plane
// misbehaves).
func (p *Proxy) handleFaultsFanout(w http.ResponseWriter, r *http.Request) error {
	body, err := service.ReadBody(r)
	if err != nil {
		return err
	}
	status := http.StatusOK
	results := make(map[string]json.RawMessage, len(p.order))
	for _, b := range p.order {
		res, err := b.cl.Do(r.Context(), r.Method, "/v1/faults", r.Header.Get("Content-Type"), body)
		if err != nil {
			status = http.StatusBadGateway
			msg, _ := json.Marshal(service.ErrorResponse{Error: err.Error()})
			results[b.Name] = msg
			continue
		}
		if res.Status != http.StatusOK && status == http.StatusOK {
			status = res.Status
		}
		if json.Valid(res.Body) {
			results[b.Name] = res.Body
		} else {
			msg, _ := json.Marshal(string(res.Body))
			results[b.Name] = msg
		}
	}
	p.WriteJSON(w, status, results)
	return nil
}

// BackendHealth is one backend's view in the proxy's /healthz body.
type BackendHealth struct {
	Name    string  `json:"name"`
	URL     string  `json:"url"`
	Healthy bool    `json:"healthy"`
	Breaker string  `json:"breaker"`
	NAvg    float64 `json:"navg"`
	// ReportedNAvg is the backend's own limiter occupancy from its last
	// probe body.
	ReportedNAvg float64 `json:"reported_navg"`
	// BrownoutMode is the backend's brownout rung from its last probe body
	// ("B0".."B4"; "B0" when the backend predates brownout).
	BrownoutMode string `json:"brownout_mode"`
	// Draining is true once the backend reported it is draining for
	// shutdown; the proxy stops routing to it.
	Draining bool `json:"draining,omitempty"`
}

// HealthResponse is the proxy's GET /healthz body.
type HealthResponse struct {
	// Status is "ok" while at least one backend accepts traffic,
	// "degraded" otherwise, "draining" once BeginDrain has been called
	// (still 200: the proxy itself is alive).
	Status   string          `json:"status"`
	Version  string          `json:"version"`
	Draining bool            `json:"draining,omitempty"`
	Backends []BackendHealth `json:"backends"`
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := p.cfg.Now()
	resp := HealthResponse{Status: "degraded", Version: buildinfo.Version()}
	for _, b := range p.order {
		st, healthy := b.snapshotState()
		if healthy {
			resp.Status = "ok"
		}
		b.mu.Lock()
		reported := b.reported
		mode, draining := b.mode, b.draining
		b.mu.Unlock()
		resp.Backends = append(resp.Backends, BackendHealth{
			Name:         b.Name,
			URL:          b.URL,
			Healthy:      healthy,
			Breaker:      st.String(),
			NAvg:         b.navg(now),
			ReportedNAvg: reported,
			BrownoutMode: mode.String(),
			Draining:     draining,
		})
	}
	if p.Draining() {
		// Drain wins: upstream load balancers must stop sending here even
		// while the backends themselves are fine.
		resp.Status = "draining"
		resp.Draining = true
	}
	p.WriteJSON(w, http.StatusOK, resp)
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	service.HardenHeaders(w.Header(), "text/plain; version=0.0.4", false)
	p.reg.WritePrometheus(w)
}
