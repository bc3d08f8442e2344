package cluster

import (
	"fmt"
	"net/http"
	"sort"

	"littleslaw/internal/brownout"
	"littleslaw/internal/service"
)

// candidates returns the backends that may serve a request with the given
// affinity key, in preference order: the ring owner first (unless the
// forwards in flight to it have reached the occupancy ceiling, or it has
// browned out past B2 while a full-fidelity backend is available, and the
// request is not pinned), then the remaining eligible backends —
// non-degraded before degraded, fewest in flight first within each class.
// Backends whose last probe reported draining are skipped entirely while
// any alternative exists: their listener is about to close. Pinned
// requests (streams) always put the owner first — a subscriber must reach
// the broker's host — and only breaker or drain ineligibility reroutes
// them.
//
// The decision string names which rule chose the head candidate — "owner"
// (affinity; also an owner at the ceiling that is still the least loaded),
// "pinned", "spill" (owner at the ceiling, another backend leads),
// "degraded" (owner browned out, fuller backend preferred), "load" (no
// affinity identity) — and becomes the trace's route span.
func (p *Proxy) candidates(key string, pinned bool) ([]*Backend, string) {
	now := p.cfg.Now()
	type cand struct {
		b        *Backend
		load     float64
		degraded bool
		draining bool
	}
	elig := make([]cand, 0, len(p.order))
	drainingN := 0
	for _, b := range p.order {
		if !b.allow(now) {
			continue
		}
		mode, draining := b.degradation()
		if draining {
			drainingN++
		}
		// B2+ means the backend would answer from the analytic model (or
		// shed outright) — worth routing around; B1 still serves full or
		// stale-but-real simulation results and keeps its affinity value.
		elig = append(elig, cand{b, b.load(), mode >= brownout.B2, draining})
	}
	if len(elig) == 0 {
		return nil, ""
	}
	if drainingN > 0 && drainingN < len(elig) {
		kept := elig[:0]
		for _, c := range elig {
			if !c.draining {
				kept = append(kept, c)
			}
		}
		elig = kept
	}
	sort.SliceStable(elig, func(i, j int) bool {
		if elig[i].degraded != elig[j].degraded {
			return !elig[i].degraded
		}
		return elig[i].load < elig[j].load
	})
	out := make([]*Backend, len(elig))
	for i, c := range elig {
		out[i] = c.b
	}
	if key == "" {
		return out, "load"
	}
	owner, ok := p.ring.OwnerWhere(key, func(name string) bool {
		for _, c := range elig {
			if c.b.Name == name {
				return true
			}
		}
		return false
	})
	if !ok {
		return out, "load"
	}
	oi := 0
	for i, c := range elig {
		if c.b.Name == owner {
			oi = i
			break
		}
	}
	if !pinned && elig[oi].degraded && !elig[0].degraded {
		// The owner would answer approximately; a warm cache is worth less
		// than a full-fidelity answer elsewhere. The owner stays in the
		// list as a failover candidate — an approximate answer still beats
		// none.
		p.degradedReroutes.Inc()
		return out, "degraded"
	}
	if !pinned && oi != 0 && elig[oi].load >= p.cfg.OccupancyCeiling {
		// Join-least-loaded spillover: the owner is drowning and the
		// sorted order already leads with a backend holding fewer; the
		// owner stays available as a later failover candidate. An owner at
		// the ceiling that still leads goes on as "owner" below.
		p.overrides.Inc()
		return out, "spill"
	}
	if oi != 0 {
		b := out[oi]
		copy(out[1:oi+1], out[:oi])
		out[0] = b
	}
	if pinned {
		return out, "pinned"
	}
	return out, "owner"
}

// affinityKey derives the routing identity for a unary route from the
// request. Undecodable or identity-free requests return "": routed by
// load, and the backend produces the proper error.
func affinityKey(route string, r *http.Request, body []byte) string {
	switch route {
	case "analyze", "advise":
		if req, err := service.DecodeAnalyzeRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "analyze_batch":
		if req, err := service.DecodeBatchAnalyzeRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "characterize":
		if req, err := service.DecodeCharacterizeRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "tune":
		if req, err := service.DecodeTuneRequest(body); err == nil {
			if key, ok := req.AffinityKey(); ok {
				return key
			}
		}
	case "tables":
		scale := 1.0
		if v := r.URL.Query().Get("scale"); v != "" {
			fmt.Sscanf(v, "%g", &scale)
		}
		if key, ok := service.TableAffinityKey(r.PathValue("id"), scale); ok {
			return key
		}
	}
	return ""
}
