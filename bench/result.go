package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit. The two catalogs below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these (a test pins
// it) and every later performance issue refers to them by name.
type metricDef struct{ name, unit string }

// endToEnd is what a caller of the system sees, reported by every workload
// on the untraced run. In tables_batch a request is one table regeneration.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
}

// exact are the end-to-end metrics with no tolerance: any difference
// between two runs of the same seed is a change of behaviour, not noise.
// The benchmark contract has no place for a metric that is legitimately 0,
// so they gate the run through its correct/failed fields instead and
// -compare checks them for equality.
var exact = []metricDef{
	{"error_rate", "ratio"},
	{"output_mismatches", "count"},
	{"navg_mape_pct", "%"},
}

// perLayer is reported by the traced run; layer = module name. A metric
// that does not apply to a workload (the proxy's on a single server, the
// tables' on a serving run) reads 0 there.
var perLayer = []metricDef{
	{"bench.floor_us", "us"},
	{"bench.trace_overhead_frac", "ratio"},
	{"client.do_us", "us"},
	{"http.transport_us", "us"},
	{"service.handler_us", "us"},
	{"service.handler_hit_us", "us"},
	{"service.handler_meas_us", "us"},
	{"service.allocs_per_hit", "count"},
	{"service.decode_us", "us"},
	{"service.self_us", "us"},
	{"limit.acquire_us", "us"},
	{"limit.queued_total", "count"},
	{"limit.shed_total", "count"},
	{"trace.request_us", "us"},
	{"trace.stage_w_us.handler", "us"},
	{"trace.stage_w_us.runner", "us"},
	{"trace.stage_w_us.engine", "us"},
	{"trace.stage_w_us.sim", "us"},
	{"trace.sim_w_gap_frac", "ratio"},
	{"metrics.observe_ns", "ns"},
	{"metrics.expose_us", "us"},
	{"engine.lru_hit_ns", "ns"},
	{"engine.map_us_per_job", "us"},
	{"engine.pool_efficiency", "ratio"},
	{"runner.hits", "count"},
	{"runner.misses", "count"},
	{"runner.hit_ratio", "ratio"},
	{"runner.key_us", "us"},
	{"runner.hit_us", "us"},
	{"runner.miss_overhead_us", "us"},
	{"workloads.config_us", "us"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_demand_op", "ns"},
	{"sim.ns_per_demand_op.SKL", "ns"},
	{"sim.ns_per_demand_op.KNL", "ns"},
	{"sim.ns_per_demand_op.A64FX", "ns"},
	{"sim.ns_per_demand_op.random", "ns"},
	{"sim.ns_per_demand_op.stream", "ns"},
	{"sim.allocs_per_run", "count"},
	{"sim.kb_per_run", "KiB"},
	{"sim.share", "ratio"},
	{"events.ns_per_event", "ns"},
	{"memsys.cache_access_ns", "ns"},
	{"memsys.newcache_us", "us"},
	{"memsys.dram_access_ns", "ns"},
	{"core.analyze_us", "us"},
	{"queueing.lookup_ns", "ns"},
	{"experiments.sims", "count"},
	{"experiments.navg_mape_pct", "%"},
	{"experiments.table_ms.IV", "ms"},
	{"experiments.table_ms.V", "ms"},
	{"experiments.table_ms.VI", "ms"},
	{"experiments.table_ms.VII", "ms"},
	{"experiments.table_ms.IX", "ms"},
	{"report.render_ms", "ms"},
	{"cluster.proxy_self_us", "us"},
	{"cluster.ring_owner_ns", "ns"},
	{"cluster.owner_share", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.hedges", "count"},
	{"cluster.backend_share_max", "ratio"},
	{"proc.peak_rss_mb", "MiB"},
	{"proc.allocs_per_req", "count"},
	{"proc.gc_cpu_frac", "ratio"},
	{"ledger.hit_unattributed_frac", "ratio"},
	{"ledger.miss_unattributed_frac", "ratio"},
	{"ledger.fleet_unattributed_frac", "ratio"},
}

// metric is one reported value, in the benchmark contract's wire form.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: a line of a results file, and the
// source of the contract's last-line JSON.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Nproc     int     `json:"nproc"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Samples is how many latencies stand behind the numbers: those of
	// the Measured requests that ran while the least CPU time was stolen.
	// Stolen is the stolen share of the machine's CPU time over the window.
	Samples  int     `json:"samples"`
	Measured int     `json:"measured"`
	Stolen   float64 `json:"stolen"`

	Metrics map[string]metric  `json:"metrics"`
	Exact   map[string]float64 `json:"exact"`
	// Violations are the self-assertions that failed; any makes the run
	// incorrect.
	Violations []string `json:"violations,omitempty"`

	values map[string]float64
}

func newResult(workload string, seed int64, seconds float64, traced bool, nproc int) *result {
	return &result{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Nproc: nproc,
		Exact: map[string]float64{}, values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// defs is the catalog the run's mode reports.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// seal fills Metrics with every metric of the run's catalog — 0 where
// nothing set one — and settles Correct.
func (r *result) seal() {
	r.Metrics = make(map[string]metric, len(r.defs()))
	for _, d := range r.defs() {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.violate("metric %s is %v", d.name, v)
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if r.Failed > 0 {
		r.violate("%d of %d requests failed", r.Failed, r.Attempted)
	}
	r.Correct = len(r.Violations) == 0
}

// print writes every metric by name with its unit, then the contract's
// JSON object as the last line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %t  nproc %d  samples %d of %d  stolen %.1f%% of the machine\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Nproc, r.Samples, r.Measured, 100*r.Stolen)
	for _, d := range r.defs() {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, d := range exact {
		if v, ok := r.Exact[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s (exact)\n", d.name, v, d.unit)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// appendTo adds the result as one JSON line of a results file, the input
// of -compare.
func (r *result) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- statistics ----

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailQuantile caps q at the highest quantile that still has ten samples
// beyond it, so a small sample reports that percentile under the p95 name
// rather than the luck of its slowest requests. Below twenty samples
// (tables_batch: five tables) there is no such quantile and q stands.
func tailQuantile(q float64, n int) float64 {
	if n < 20 {
		return q
	}
	return math.Min(q, 1-10/float64(n))
}

// windowStats are a measured phase's end-to-end numbers.
type windowStats struct {
	rps, p50, p95, cpuMs float64
	samples, measured    int     // latencies behind the numbers, of those measured
	steal                float64 // stolen share of the machine over the window
}

// usedShare is the least share of each class's requests the numbers come
// from.
const usedShare = 1.0 / 3

// stats computes the phase's end-to-end numbers from the requests that ran
// while the hypervisor took the least from the machine. This box is a few
// virtual CPUs of a shared host, and what moves a run's numbers most is the
// time the host gives to other guests: throughput of the same binary halves
// in a second that loses half its CPU time. The kernel counts that time, so
// every request is ranked by the stolen share between the sampler readings
// that enclose it — never by its own speed — against the other requests of
// its class (the generator's: a hit, a measurement, one kernel). The limit
// is the least stolen share that admits a third of every class, and every
// class gives the same share of its requests, its cleanest, so the pool
// keeps the window's mix: nearly all of a quiet window, a third of a noisy
// one. Throughput is those requests over the wall time they took (their
// cycles over the clients), the percentiles are over their latencies. CPU
// per request is over the whole window: the sampler cannot split it by
// request.
func (p *phase) stats() windowStats {
	var w windowStats
	type ranked struct {
		sample
		steal float64
	}
	classes := map[int16][]ranked{}
	for _, s := range p.samples {
		if begin := s.end - s.lat; begin >= p.warmup {
			classes[s.class] = append(classes[s.class], ranked{s, stolen(p.tickAt(begin, false), p.tickAt(s.end, true))})
			w.measured++
		}
	}
	from, to := p.tickAt(p.warmup, false), p.tickAt(p.length, true)
	w.steal = stolen(from, to)
	if to.done > from.done {
		w.cpuMs = ms(to.cpu-from.cpu) / float64(to.done-from.done)
	}
	if w.measured == 0 {
		return w
	}
	limit := 0.0
	for _, c := range classes {
		// Ties, of which a quiet window is full, go by a scrambled index:
		// neither end of the window is preferred.
		sort.Slice(c, func(i, j int) bool {
			if c[i].steal != c[j].steal {
				return c[i].steal < c[j].steal
			}
			return uint32(c[i].idx)*2654435761 < uint32(c[j].idx)*2654435761
		})
		limit = max(limit, c[int(math.Ceil(usedShare*float64(len(c))))-1].steal)
	}
	share := 1.0
	for _, c := range classes {
		within := sort.Search(len(c), func(i int) bool { return c[i].steal > limit })
		share = min(share, float64(within)/float64(len(c)))
	}
	var lats []float64
	var cycles time.Duration
	for _, c := range classes {
		for _, s := range c[:int(math.Ceil(share*float64(len(c))))] {
			lats = append(lats, ms(s.lat))
			cycles += s.cycle
		}
	}
	sort.Float64s(lats)
	w.samples = len(lats)
	w.rps = float64(len(lats)) * clients / cycles.Seconds()
	w.p50 = percentile(lats, 0.50)
	w.p95 = percentile(lats, tailQuantile(0.95, len(lats)))
	return w
}

// tickAt is the sampler's last reading at or before t, or with after its
// first at or after t.
func (p *phase) tickAt(t time.Duration, after bool) tick {
	if after {
		i := sort.Search(len(p.ticks), func(i int) bool { return p.ticks[i].at >= t })
		return p.ticks[min(i, len(p.ticks)-1)]
	}
	i := sort.Search(len(p.ticks), func(i int) bool { return p.ticks[i].at > t })
	return p.ticks[max(i-1, 0)]
}

// stolen is the share of the machine's CPU time the hypervisor kept from
// it between two sampler readings.
func stolen(a, b tick) float64 {
	if b.at <= a.at {
		return 0
	}
	const stealTick = 10 * time.Millisecond // USER_HZ
	return float64(b.steal-a.steal) * stealTick.Seconds() / (float64(runtime.NumCPU()) * (b.at - a.at).Seconds())
}
