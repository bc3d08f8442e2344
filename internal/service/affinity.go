// Affinity keys: the canonical identity of the cacheable work a /v1/*
// request will do on whichever backend serves it. A scale-out tier hashes
// these onto its backend ring so identical analyses revisit the backend
// whose caches (runner LRU, profile cache) already hold the answer. A
// workload body's key is the runner key of the run resolveRun gives the
// handler, so two requests get the same key exactly when the serving
// backend would do the same cached work for both.
package service

import (
	"fmt"

	"littleslaw/internal/platform"
	"littleslaw/internal/runner"
	"littleslaw/internal/workloads"
)

// AffinityKey returns the request's routing identity. ok is false when the
// request has no stable cacheable identity (unknown platform/workload,
// uncacheable simulation config): route those by load instead — the backend
// will produce the proper error or run uncached work either way.
func (r *AnalyzeRequest) AffinityKey() (key string, ok bool) {
	p, err := platform.ByName(r.Platform)
	if err != nil {
		return "", false
	}
	if r.Measurement != nil {
		// No simulation: the only reusable state is the per-platform
		// bandwidth→latency profile.
		return "platform|" + p.Name, true
	}
	_, cfg, err := resolveRun(p, r.Workload, r.Variant, r.ThreadsPerCore, r.Scale)
	if err != nil {
		return "", false
	}
	k, cacheable, err := runner.KeyOf(cfg)
	if err != nil || !cacheable {
		return "", false
	}
	return "run|" + k.String(), true
}

// AffinityKey routes a characterization to the backend holding (or
// building) that platform's profile.
func (r *CharacterizeRequest) AffinityKey() (key string, ok bool) {
	p, err := platform.ByName(r.Platform)
	if err != nil {
		return "", false
	}
	return "platform|" + p.Name, true
}

// AffinityKey groups a tuning session's probe simulations: re-tuning the
// same (platform, workload, scale) revisits the backend whose runner cache
// holds the session's probes.
func (r *TuneRequest) AffinityKey() (key string, ok bool) {
	p, err := platform.ByName(r.Platform)
	if err != nil {
		return "", false
	}
	if _, found := workloads.ByName(r.Workload); !found {
		return "", false
	}
	scale := r.Scale
	if scale == 0 {
		scale = defaultScale
	}
	return fmt.Sprintf("tune|%s|%s|%g", p.Name, r.Workload, scale), true
}

// AffinityKey pins a batch to its first item's identity: a well-formed
// batch shares platform/workload context across items, and one backend's
// runner cache then serves the whole set.
func (r *BatchAnalyzeRequest) AffinityKey() (key string, ok bool) {
	if len(r.Requests) == 0 {
		return "", false
	}
	return r.Requests[0].AffinityKey()
}

// TableAffinityKey is the routing identity of GET /v1/tables/{id}?scale=:
// per-(table, scale), so a repeat lands on the backend whose runner holds
// that table's simulations.
func TableAffinityKey(id string, scale float64) (key string, ok bool) {
	norm, err := NormalizeTableID(id)
	if err != nil {
		return "", false
	}
	return fmt.Sprintf("table|%s|%g", norm, scale), true
}

// StreamAffinityKey is the routing identity of a named watch stream; every
// subscriber must reach the one backend hosting the stream's broker.
func StreamAffinityKey(name string) string { return "stream|" + name }
