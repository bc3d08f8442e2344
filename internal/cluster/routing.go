package cluster

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"sync"

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
// The decision names which rule chose the head candidate — routeOwner
// (affinity; also an owner at the ceiling that is still the least loaded),
// routePinned, routeSpill (owner at the ceiling, another backend leads),
// routeDegraded (owner browned out, fuller backend preferred), routeLoad
// (no affinity identity) — and becomes the trace's route span.
func (p *Proxy) candidates(key string, pinned bool) ([]*Backend, word) {
	now := p.cfg.Now()
	type cand struct {
		b        *Backend
		load     float64
		degraded bool
		draining bool
	}
	var buf [8]cand // on the stack for any fleet up to 8
	elig := buf[:0]
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
		return nil, routeLoad
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
	slices.SortStableFunc(elig, func(a, b cand) int {
		if a.degraded != b.degraded {
			if a.degraded {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.load, b.load)
	})
	out := make([]*Backend, len(elig))
	for i, c := range elig {
		out[i] = c.b
	}
	if key == "" {
		return out, routeLoad
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
		return out, routeLoad
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
		return out, routeDegraded
	}
	if !pinned && oi != 0 && elig[oi].load >= p.cfg.OccupancyCeiling {
		// Join-least-loaded spillover: the owner is drowning and the
		// sorted order already leads with a backend holding fewer; the
		// owner stays available as a later failover candidate. An owner at
		// the ceiling that still leads goes on as routeOwner below.
		p.overrides.Inc()
		return out, routeSpill
	}
	if oi != 0 {
		b := out[oi]
		copy(out[1:oi+1], out[:oi])
		out[0] = b
	}
	if pinned {
		return out, routePinned
	}
	return out, routeOwner
}

// keyMemo remembers the affinity keys of one unary route's recent bodies.
// Outside the tables route a key is a pure function of the body, and the
// bodies worth routing by affinity are the ones that repeat, so the strict
// decode and the key build (≈ 5 µs together) run once per distinct body
// rather than once per request. It holds at most keyMemoMax bodies of up
// to keyMemoBody bytes each, and starts over when full.
type keyMemo struct {
	route string
	mu    sync.Mutex
	keys  map[string]string // body → affinityKey
}

const (
	keyMemoMax  = 1024
	keyMemoBody = 1024
)

// key returns affinityKey(m.route, r, body), from the memo when it can.
func (m *keyMemo) key(r *http.Request, body []byte) string {
	if m.route == "tables" || len(body) > keyMemoBody {
		return affinityKey(m.route, r, body)
	}
	m.mu.Lock()
	k, ok := m.keys[string(body)]
	m.mu.Unlock()
	if ok {
		return k
	}
	k = affinityKey(m.route, r, body)
	m.mu.Lock()
	if m.keys == nil || len(m.keys) >= keyMemoMax {
		m.keys = make(map[string]string)
	}
	m.keys[string(body)] = k
	m.mu.Unlock()
	return k
}

// affinityKey derives the routing identity for a unary route from the
// request: the tables route's from its URL, every other route's from its
// body alone. Undecodable or identity-free requests return "": routed by
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
