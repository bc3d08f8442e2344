package cluster

import (
	"encoding/json"
	"net/http"
	"time"

	"littleslaw/internal/cli"
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
	x := unaryExchange(r, body)
	for _, b := range p.order {
		x.target = b.prefix + "/v1/faults"
		res, err := b.lane.do(r.Context(), &x, time.Now().Add(service.MaxTimeout))
		if err != nil {
			status = http.StatusBadGateway
			msg, _ := json.Marshal(service.ErrorResponse{Error: err.Error()})
			results[b.Name] = msg
			continue
		}
		if res.status != http.StatusOK && status == http.StatusOK {
			status = res.status
		}
		if json.Valid(res.body) {
			results[b.Name] = res.body
		} else {
			msg, _ := json.Marshal(string(res.body))
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
	resp := HealthResponse{Status: "degraded", Version: cli.Version()}
	for _, b := range p.order {
		st, healthy := b.snapshotState()
		if healthy {
			resp.Status = "ok"
		}
		mode, draining := b.degradation()
		resp.Backends = append(resp.Backends, BackendHealth{
			Name:         b.Name,
			URL:          b.URL,
			Healthy:      healthy,
			Breaker:      st.String(),
			NAvg:         b.navg(now),
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
