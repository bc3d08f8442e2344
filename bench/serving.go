package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"littleslaw/bench/gen"
	"littleslaw/internal/faults"
	"littleslaw/internal/service"
)

// options is one invocation of the harness.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	portBase int
	spansDir string
	// goldenDir holds the committed table fixtures tables_batch compares
	// against.
	goldenDir string
	// small shrinks the fixed-size parts (set-up, direct cross-checks,
	// the table set) for the smoke test; the windows shrink with seconds.
	small bool
}

// directChecks is how many distinct simulated bodies a run recomputes
// directly, spread evenly over the kinds of body it served. Every
// direct-measurement body is recomputed as well (that costs microseconds).
const directChecks = 24

// bodyKind says what a request body makes the server do: answer from the
// supplied counters, or simulate combo (platform/workload).
type bodyKind struct {
	measurement bool
	combo       string
}

func kindOf(body []byte) (bodyKind, error) {
	req, err := service.DecodeAnalyzeRequest(body)
	if err != nil {
		return bodyKind{}, fmt.Errorf("generated body %s: %w", body, err)
	}
	if req.Measurement != nil {
		return bodyKind{measurement: true}, nil
	}
	return bodyKind{combo: req.Platform + "/" + req.Workload}, nil
}

// served is one distinct simulated body with the answer the stack gave
// and, once cross-checked, the direct recomputation.
type served struct {
	combo  string
	oneOff bool
	body   []byte
	resp   []byte
	direct *directRun
}

// servingRun is one run of a serving workload, from set-up to the last
// cross-check.
type servingRun struct {
	o   options
	r   *result
	seq *gen.Sequence
	rec *recorder // nil on the untraced run
	st  *stack

	// warm is set-up; plain is the traced run's untraced half-window (nil
	// otherwise); win is the window the metrics come from.
	warm, plain, win *phase
	// hits and misses are the backends' runner-cache counts over the
	// measured phases (plain and win).
	hits, misses uint64
	// The servers' /metrics pages, read after the window.
	backendPages [][]series
	proxyPage    []series
	// checked are the bodies the cross-check recomputed directly.
	checked []*served
}

// phases lists the run's phases in the order they ran.
func (sr *servingRun) phases() []*phase {
	if sr.plain == nil {
		return []*phase{sr.warm, sr.win}
	}
	return []*phase{sr.warm, sr.plain, sr.win}
}

// runServing runs one of the three serving workloads.
func runServing(ctx context.Context, o options) (*result, error) {
	r := newResult(o.workload, o.seed, o.seconds, o.traced, runtime.NumCPU())
	if faults.Global().Enabled() {
		r.violate("faults.Global() is enabled")
	}
	newSeq := gen.New
	if o.small {
		newSeq = gen.NewSmoke
	}
	seq, err := newSeq(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	sr := &servingRun{o: o, r: r, seq: seq}
	nBackends := 1
	if o.workload == gen.FleetZipf {
		nBackends = 3
	}
	var wrap wrapFunc
	var hook profileHook
	if o.traced {
		sr.rec = newRecorder()
		sr.rec.on.Store(true)
		wrap, hook = sr.rec.wrap, sr.rec.profileHook
	}

	// Set-up: build the stack and warm it. Everything a user of a freshly
	// started llserved would wait for before the first fast answer.
	setupStart := time.Now()
	if sr.st, err = newStack(nBackends, o.portBase, wrap, hook); err != nil {
		return nil, err
	}
	defer sr.st.Close()
	d := newDriver(sr.st.url, seq, o.seconds, o.traced)
	defer d.close()
	sr.warm = d.setup()
	r.set("setup_s", time.Since(setupStart).Seconds())
	hits0, misses0 := sr.st.runnerStats()

	// Measurement. The traced run spends the first half of its time with
	// recording off and the second with it on, so the cost of the
	// harness's own spans is a number too.
	length := time.Duration(o.seconds * float64(time.Second))
	warmup := min(warmup, length/5)
	if o.traced {
		sr.rec.on.Store(false)
		var next int
		sr.plain, next = d.measure(0, warmup, length/2)
		sr.rec.on.Store(true)
		sr.win, _ = d.measure(next, 0, length/2)
		sr.rec.on.Store(false)
	} else {
		sr.win, _ = d.measure(0, warmup, length)
	}
	hits1, misses1 := sr.st.runnerStats()
	sr.hits, sr.misses = hits1-hits0, misses1-misses0

	win := sr.win
	w := win.stats()
	if r.Samples = w.samples; r.Samples == 0 {
		return nil, fmt.Errorf("%s: no request completed in %v", o.workload, length)
	}
	mismatches := 0
	for _, p := range sr.phases() {
		r.Attempted += len(p.samples)
		r.Failed += p.failed
		mismatches += p.differ
		for _, f := range p.failures {
			r.violate("%s", f)
		}
	}
	r.Measured, r.Stolen = w.measured, w.steal
	r.set("throughput_rps", w.rps)
	r.set("lat_p50_ms", w.p50)
	r.set("lat_p95_ms", w.p95)
	r.set("cpu_ms_per_req", w.cpuMs)

	// Counts the servers keep, read from the pages an operator scrapes.
	for _, b := range sr.st.backends {
		page, err := scrape(b.srv.Registry())
		if err != nil {
			return nil, err
		}
		sr.backendPages = append(sr.backendPages, page)
	}
	if sr.st.proxy != nil {
		if sr.proxyPage, err = scrape(sr.st.proxy.Registry()); err != nil {
			return nil, err
		}
	}
	sr.st.Close() // the cross-checks and the direct-call rows get the box to themselves
	d.close()

	sr.assert()

	// Outputs: every distinct body's answers agreed with each other (the
	// phases' differ counts), and a spread of them agree with a direct
	// recomputation.
	wrong, err := sr.crossCheck(ctx)
	if err != nil {
		return nil, err
	}
	mismatches += wrong
	r.Exact["error_rate"] = float64(r.Failed) / float64(r.Attempted)
	r.Exact["output_mismatches"] = float64(mismatches)
	if mismatches > 0 {
		r.violate("%d answers differed from another answer to the same body or from a direct sim.RunContext + core.Analyze", mismatches)
	}

	if o.traced {
		if err := sr.tracedRows(ctx); err != nil {
			return nil, err
		}
	}
	r.seal()
	return r, nil
}

// assert holds the workload to what it was built to exercise: a run that
// sheds, degrades, fails over, or misses where it should hit measured
// something else, and must fail rather than report a number.
func (sr *servingRun) assert() {
	r := sr.r
	var requests uint64
	for _, p := range sr.phases()[1:] {
		requests += uint64(len(p.samples))
	}
	switch sr.o.workload {
	case gen.HitServe:
		if sr.misses != 0 {
			r.violate("hit_serve: %d runner misses in the window, want 0", sr.misses)
		}
	case gen.MissServe:
		if sr.misses != requests || sr.hits != 0 {
			r.violate("miss_serve: %d misses and %d hits for %d requests, want every request a miss", sr.misses, sr.hits, requests)
		}
	case gen.FleetZipf:
		// Set-up simulated every key on its owner: a miss now means
		// routing sent a key elsewhere or the owner's LRU lost it.
		if sr.misses != 0 {
			r.violate("fleet_zipf: %d runner misses in the window: warmed keys lost their cache affinity", sr.misses)
		}
	}
	for _, page := range sr.backendPages {
		for _, decision := range []string{"queued", "shed", "expired", "drained", "brownout_shed"} {
			if n := sum(page, "llserved_limiter_decisions_total", map[string]string{"decision": decision}); n != 0 {
				r.violate("limiter decision %q happened %v times, want 0", decision, n)
			}
		}
		if mode := sum(page, "llserved_brownout_mode", nil); mode != 0 {
			r.violate("backend left brownout rung B0 (mode %v)", mode)
		}
		if n := sum(page, "llserved_faults_injected_total", nil); n != 0 {
			r.violate("%v faults injected", n)
		}
	}
	for _, name := range []string{"llproxy_failovers_total", "llproxy_hedges_total",
		"llproxy_affinity_overrides_total", "llproxy_degraded_reroutes_total", "llproxy_no_backend_total"} {
		if n := sum(sr.proxyPage, name, nil); n != 0 {
			r.violate("%s = %v, want 0", name, n)
		}
	}
}

// crossCheck recomputes a spread of the run's distinct simulated bodies,
// and every direct-measurement body, without the serving stack and
// compares the answers. It fills sr.checked (the traced run reads the
// kernel's cost off the recomputations) and returns how many answers
// differed; the first difference is reported in full.
func (sr *servingRun) crossCheck(ctx context.Context) (int, error) {
	wrong := 0
	compare := func(d *directRun, body, resp []byte) {
		if diff := d.matches(resp); diff != "" {
			if wrong == 0 {
				sr.r.violate("body %s: %s", body, diff)
			}
			wrong++
		}
	}
	var pool []*served
	// Never-seen bodies of the measured window ran the kernel there.
	for _, of := range sr.win.oneOffs {
		k, err := kindOf(of.body)
		if err != nil {
			return 0, err
		}
		pool = append(pool, &served{combo: k.combo, oneOff: true, body: of.body, resp: of.resp})
	}
	// Repeated bodies ran it once, in set-up; their answer is whichever
	// phase served them first.
	for key, body := range sr.seq.Repeated() {
		var resp []byte
		for _, p := range sr.phases() {
			if resp = p.first[key]; resp != nil {
				break
			}
		}
		if resp == nil {
			continue // never drawn in this run
		}
		k, err := kindOf(body)
		if err != nil {
			return 0, err
		}
		if !k.measurement {
			pool = append(pool, &served{combo: k.combo, body: body, resp: resp})
			continue
		}
		d, err := recompute(ctx, body)
		if err != nil {
			return 0, err
		}
		compare(d, body, resp)
	}

	// Take the n-th body of every (one-off?, combo) class before the
	// n+1-th of any, so the sample covers each platform and routine the run
	// touched.
	type class struct {
		oneOff bool
		combo  string
	}
	seen := map[class]int{}
	nth := make(map[*served]int, len(pool))
	for _, sv := range pool {
		c := class{sv.oneOff, sv.combo}
		nth[sv] = seen[c]
		seen[c]++
	}
	sort.SliceStable(pool, func(a, b int) bool { return nth[pool[a]] < nth[pool[b]] })
	want := directChecks
	if sr.o.small {
		want = 4
	}
	sr.checked = pool[:min(want, len(pool))]

	// The traced run recomputes one at a time, so the heap counters around
	// each run are that run's alone; the untraced run uses both cores.
	workers := clients
	if sr.o.traced {
		workers = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sr.checked))
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sr.checked[i].direct, errs[i] = recompute(ctx, sr.checked[i].body)
			}
		}()
	}
	for i := range sr.checked {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, sv := range sr.checked {
		if errs[i] != nil {
			return 0, fmt.Errorf("recomputing %s: %w", sv.body, errs[i])
		}
		compare(sv.direct, sv.body, sv.resp)
	}
	return wrong, nil
}

// spansPath is where a workload's traced window is written.
func spansPath(o options) string { return filepath.Join(o.spansDir, o.workload+".spans.jsonl") }
