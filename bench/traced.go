package main

import (
	"context"
	"math"

	"littleslaw/bench/gen"
)

// portNoop is the offset from -port-base of the no-op server the floor
// rows talk to.
const portNoop = 9

// simRows fills the sim.* rows from kernel runs made directly (outside the
// runner and the servers): host time per run and per simulated demand
// operation, split by platform and by access pattern, and what a run
// allocates.
func simRows(r *result, runs []*directRun) {
	type acc struct{ ns, ops float64 }
	var all acc
	by := map[string]*acc{}
	add := func(class string, ns, ops float64) {
		a := by[class]
		if a == nil {
			a = &acc{}
			by[class] = a
		}
		a.ns += ns
		a.ops += ops
	}
	var times, mallocs, kb []float64
	for _, d := range runs {
		if d == nil || d.res == nil {
			continue
		}
		ns, ops := float64(d.simTime), float64(d.res.DemandLoads+d.res.DemandStores)
		all.ns += ns
		all.ops += ops
		add(d.platform, ns, ops)
		switch d.workload {
		case "ISx":
			add("random", ns, ops)
		case "HPCG", "SNAP":
			add("stream", ns, ops)
		}
		times = append(times, ms(d.simTime))
		mallocs = append(mallocs, float64(d.mallocs))
		kb = append(kb, d.allocKB)
	}
	per := func(a *acc) float64 {
		if a == nil || a.ops == 0 {
			return 0
		}
		return a.ns / a.ops
	}
	r.set("sim.run_ms", mean(times))
	r.set("sim.ns_per_demand_op", per(&all))
	for _, class := range []string{"SKL", "KNL", "A64FX", "random", "stream"} {
		r.set("sim.ns_per_demand_op."+class, per(by[class]))
	}
	r.set("sim.allocs_per_run", mean(mallocs))
	r.set("sim.kb_per_run", mean(kb))
}

// stageW reads the servers' own per-stage mean residence (seconds) and
// reports it in microseconds, averaged over the backends that saw the
// stage.
func stageW(pages [][]series, stage string) float64 {
	var vals []float64
	for _, page := range pages {
		for _, s := range page {
			if s.name == "llserved_trace_stage_w_seconds" && s.labels["stage"] == stage && s.value > 0 {
				vals = append(vals, s.value*1e6)
			}
		}
	}
	return mean(vals)
}

// tracedRows fills every per-layer metric of a serving workload's traced
// run and writes the window's spans.
func (sr *servingRun) tracedRows(ctx context.Context) error {
	r, o, rec, plain, win := sr.r, sr.o, sr.rec, sr.plain, sr.win
	backends, proxy := sr.backendPages, sr.proxyPage
	withProxy := sr.st.proxy != nil

	// Spans: join each client sample to the handler spans behind it.
	var transport, handler, proxySelf []float64
	var simInWindow float64 // the servers' own kernel time, us
	unjoined := 0
	for _, s := range win.samples {
		if !s.ok {
			continue
		}
		j := rec.join(s, win.traceOf(s), withProxy)
		if !j.ok {
			unjoined++
			continue
		}
		handler = append(handler, us(j.service))
		if j.simMs > 0 {
			simInWindow += 1000 * j.simMs
		}
		outer := j.service
		if withProxy {
			outer = j.proxy
			proxySelf = append(proxySelf, us(j.proxy-j.service))
		}
		transport = append(transport, us(j.client-outer))
	}
	if unjoined > 0 {
		r.violate("%d of %d traced requests had no handler span under their trace id", unjoined, len(win.samples))
	}
	r.set("http.transport_us", median(transport))
	r.set("service.handler_us", median(handler))
	r.set("cluster.proxy_self_us", median(proxySelf))
	r.set("bench.trace_overhead_frac", 1-win.stats().rps/plain.stats().rps)
	if err := rec.writeSpans(spansPath(o), win, withProxy); err != nil {
		return err
	}

	// Counts.
	var queued, shed float64
	for _, page := range backends {
		queued += sum(page, "llserved_limiter_decisions_total", map[string]string{"decision": "queued"})
		shed += sum(page, "llserved_limiter_decisions_total", map[string]string{"decision": "shed"})
	}
	r.set("limit.queued_total", queued)
	r.set("limit.shed_total", shed)
	r.set("runner.hits", float64(sr.hits))
	r.set("runner.misses", float64(sr.misses))
	if lookups := sr.hits + sr.misses; lookups > 0 {
		r.set("runner.hit_ratio", float64(sr.hits)/float64(lookups))
	}
	for _, stage := range []string{"handler", "runner", "engine", "sim"} {
		r.set("trace.stage_w_us."+stage, stageW(backends, stage))
	}
	if withProxy {
		var total, most float64
		for _, name := range sr.st.proxy.Backends() {
			n := sum(proxy, "llproxy_requests_total", map[string]string{"backend": name})
			total += n
			most = math.Max(most, n)
		}
		if total > 0 {
			r.set("cluster.owner_share", 1-sum(proxy, "llproxy_affinity_overrides_total", nil)/total)
			r.set("cluster.backend_share_max", most/total)
		}
		r.set("cluster.failovers", sum(proxy, "llproxy_failovers_total", nil))
		r.set("cluster.hedges", sum(proxy, "llproxy_hedges_total", nil))
	}
	served := float64(len(plain.samples) + len(win.samples))
	r.set("proc.allocs_per_req", float64(plain.mallocs+win.mallocs)/served)
	r.set("proc.gc_cpu_frac", (plain.gcFrac*plain.cpu.Seconds()+win.gcFrac*win.cpu.Seconds())/
		(plain.cpu+win.cpu).Seconds())
	r.set("proc.peak_rss_mb", peakRSSMB())

	// The kernel, from the direct recomputations of the cross-check.
	var runs []*directRun
	var oneOffSim []float64
	for _, sv := range sr.checked {
		runs = append(runs, sv.direct)
		if sv.oneOff {
			oneOffSim = append(oneOffSim, us(sv.direct.simTime))
		}
	}
	simRows(r, runs)
	// The honesty check on the program's own spans: over every request
	// that ran the kernel, the kernel time its waterfall reported against
	// the same request timed from outside by the handler wrapper (which
	// adds the envelope, microseconds against milliseconds).
	var outside, own float64
	for _, sp := range rec.spans[tierService] {
		if sp.simMs >= 0 {
			outside += ms(sp.end.Sub(sp.start))
			own += sp.simMs
		}
	}
	if outside > 0 {
		r.set("trace.sim_w_gap_frac", math.Abs(outside-own)/outside)
	}
	sumLat := 0.0
	for _, s := range win.samples {
		sumLat += us(s.lat)
	}
	// The kernel's share of what clients waited: the servers' own kernel
	// spans (checked just above) over the window's client latency.
	r.set("sim.share", simInWindow/sumLat)
	meanMissSim := mean(oneOffSim)

	// Direct-call rows, then the ledger: does what the layers cost alone
	// add up to what the client waited?
	lc, err := measureLayers(ctx, r, o.portBase, o.small)
	if err != nil {
		return err
	}
	kinds := make([]bodyKind, len(sr.seq.Repeated()))
	for k, body := range sr.seq.Repeated() {
		if kinds[k], err = kindOf(body); err != nil {
			return err
		}
	}
	predicted := 0.0
	for _, s := range win.samples {
		w := lc.floor
		if withProxy {
			// The proxy decodes the body and derives the runner key to
			// find the owner, then forwards through the resilient client.
			w += lc.decode + lc.config + lc.key + lc.ringOwner + lc.clientDo
		}
		switch {
		case s.key < 0:
			w += lc.handlerHit + lc.missOverhead + meanMissSim
		case kinds[s.key].measurement:
			w += lc.handlerMeas
		default:
			w += lc.handlerHit
		}
		predicted += w
	}
	r.set(map[string]string{
		gen.HitServe:  "ledger.hit_unattributed_frac",
		gen.MissServe: "ledger.miss_unattributed_frac",
		gen.FleetZipf: "ledger.fleet_unattributed_frac",
	}[o.workload], 1-predicted/sumLat)
	return nil
}
