package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"littleslaw/internal/client"
	"littleslaw/internal/cluster"
	"littleslaw/internal/core"
	"littleslaw/internal/engine"
	"littleslaw/internal/events"
	"littleslaw/internal/experiments"
	"littleslaw/internal/limit"
	"littleslaw/internal/memsys"
	"littleslaw/internal/metrics"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/service"
	"littleslaw/internal/sim"
	"littleslaw/internal/trace"
)

// The direct-call rows time each layer's public entry points on fixed
// inputs, alone on the box after the stack has been stopped: the cheapest
// kernel as the cached workload body and one direct-measurement body. They
// are the same in every workload's traced run, so a layer's number can be
// read next to any end-to-end one.
var (
	probeHotBody  = []byte(`{"platform":"SKL","workload":"CoMD","scale":0.005}`)
	probeMeasBody = []byte(`{"platform":"KNL","measurement":{"routine":"r","bandwidth_gbs":216,"random_access":true}}`)
)

// perOp runs fn n times in each of five rounds and returns the median
// round's time per call.
func perOp(n int, fn func()) time.Duration {
	rounds := make([]float64, 5)
	for r := range rounds {
		begin := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(begin)) / float64(n)
	}
	return time.Duration(median(rounds))
}

// each times every call of fn on its own and returns the median and the
// mean: the mean is what adds up in the ledger, the median what a layer's
// row reports.
func each(n int, fn func()) (med, avg time.Duration) {
	d := make([]float64, n)
	for i := range d {
		begin := time.Now()
		fn()
		d[i] = float64(time.Since(begin))
	}
	return time.Duration(median(d)), time.Duration(mean(d))
}

// layerCosts are the isolated per-request costs the ledger sums, in
// microseconds (means).
type layerCosts struct {
	floor, clientDo, handlerHit, handlerMeas, decode, key, config, ringOwner, missOverhead float64
}

// measureLayers fills the direct-call rows of r. The no-op server listens
// on portBase+portNoop; small cuts every repetition count to a twentieth
// for the smoke test.
func measureLayers(ctx context.Context, r *result, portBase int, small bool) (layerCosts, error) {
	var lc layerCosts
	reps := func(n int) int {
		if small {
			return max(n/20, 2)
		}
		return n
	}

	// bench.floor_us / client.do_us: a round trip that does nothing — what
	// net/http, loopback TCP and the client cost with no service behind
	// them.
	ln, err := listen(portBase, portNoop)
	if err != nil {
		return lc, err
	}
	noop := serve(ln, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	}))
	defer noop.Shutdown(ctx)
	base := "http://" + ln.Addr().String()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	roundTrip := func() {
		resp, err := hc.Post(base+"/v1/analyze", "application/json", bytes.NewReader(probeHotBody))
		if err != nil {
			return
		}
		buf.Reset()
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	roundTrip()
	med, avg := each(reps(2000), roundTrip)
	r.set("bench.floor_us", us(med))
	lc.floor = us(avg)
	cl, err := client.New(client.Config{BaseURL: base, Seed: 1})
	if err != nil {
		return lc, err
	}
	do := func() { cl.Do(ctx, http.MethodPost, "/v1/analyze", "application/json", probeHotBody) }
	do()
	med, avg = each(reps(2000), do)
	r.set("client.do_us", us(med))
	lc.clientDo = us(avg)

	// service.*: the whole handler, driven directly.
	srv := service.New(service.Config{
		ProfileFor: func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return experiments.PaperProfileFor(p)
		},
		SimRunner: runner.New(runnerCapacity),
	})
	h := srv.Handler()
	post := func(body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
		return rec.Code
	}
	for _, b := range [][]byte{probeHotBody, probeMeasBody} {
		if code := post(b); code != http.StatusOK {
			return lc, fmt.Errorf("probe body %s answered %d", b, code)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hits := reps(3000)
	med, avg = each(hits, func() { post(probeHotBody) })
	runtime.ReadMemStats(&after)
	r.set("service.handler_hit_us", us(med))
	r.set("service.allocs_per_hit", float64(after.Mallocs-before.Mallocs)/float64(hits))
	lc.handlerHit = us(avg)
	med, avg = each(hits, func() { post(probeMeasBody) })
	r.set("service.handler_meas_us", us(med))
	lc.handlerMeas = us(avg)
	r.set("metrics.expose_us", us(perOp(reps(200), func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	})))

	decode := perOp(reps(2000), func() { service.DecodeAnalyzeRequest(probeHotBody) })
	r.set("service.decode_us", us(decode))
	lc.decode = us(decode)

	lim := limit.New(limit.Config{})
	acquire := perOp(reps(5000), func() {
		if release, _, err := lim.Acquire(ctx, "analyze"); err == nil {
			release()
		}
	})
	r.set("limit.acquire_us", us(acquire))

	sink := trace.NewSink(0)
	traced := perOp(reps(5000), func() {
		begin := time.Now()
		tr := sink.Start("analyze")
		for _, stage := range [...]string{"limit", "handler", "runner", "sim"} {
			tr.Begin(stage).End("")
		}
		tr.Finish(http.StatusOK, time.Since(begin))
		sink.Done(tr)
	})
	r.set("trace.request_us", us(traced))

	reg := metrics.NewRegistry()
	cv := reg.CounterVec("bench_requests_total", "probe", "handler", "code")
	hv := reg.HistogramVec("bench_request_seconds", "probe", nil, "handler")
	observe := perOp(reps(20000), func() {
		cv.With("analyze", "200").Inc()
		hv.With("analyze").Observe(0.0001)
	})
	r.set("metrics.observe_ns", float64(observe))

	lru := engine.NewLRU[string, int](runnerCapacity)
	lru.Put("k", 1)
	r.set("engine.lru_hit_ns", float64(perOp(reps(20000), func() {
		lru.Do(ctx, "k", func(context.Context) (int, error) { return 1, nil })
	})))
	pool := engine.New(clients)
	jobs := make([]func(context.Context) (struct{}, error), 1000)
	for i := range jobs {
		jobs[i] = func(context.Context) (struct{}, error) { return struct{}{}, nil }
	}
	r.set("engine.map_us_per_job", us(perOp(reps(5), func() { engine.Map(ctx, pool, jobs) }))/float64(len(jobs)))

	// runner.* and workloads.config_us on the hot body's config.
	req, err := service.DecodeAnalyzeRequest(probeHotBody)
	if err != nil {
		return lc, err
	}
	var cfg sim.Config
	config := perOp(reps(2000), func() { _, _, cfg, _ = simConfigOf(req) })
	r.set("workloads.config_us", us(config))
	lc.config = us(config)
	key := perOp(reps(2000), func() { runner.KeyOf(cfg) })
	r.set("runner.key_us", us(key))
	lc.key = us(key)
	run := runner.New(runnerCapacity)
	if _, err := run.Run(ctx, cfg); err != nil {
		return lc, err
	}
	hit := perOp(reps(2000), func() { run.Run(ctx, cfg) })
	r.set("runner.hit_us", us(hit))

	// runner.miss_overhead_us: Run on a miss minus sim.RunContext of the
	// same config. A kernel run is ~10^4 times the spine around it and its
	// run-to-run noise alone is larger, so both sides run under an already
	// cancelled context: the kernel returns at once, the failed flight is
	// forgotten (every call is a miss again), and what is left of Run is the
	// canonicalisation, the key and the cache bookkeeping.
	p, _, _, err := simConfigOf(req)
	if err != nil {
		return lc, err
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	miss := perOp(reps(2000), func() { run.Run(dead, cfg) }) - perOp(reps(2000), func() { sim.RunContext(dead, cfg) })
	lc.missOverhead = us(miss)
	r.set("runner.miss_overhead_us", lc.missOverhead)

	profile, err := experiments.PaperProfileFor(p)
	if err != nil {
		return lc, err
	}
	m := core.Measurement{Routine: "r", BandwidthGBs: 80, ThreadsPerCore: 1, PrefetchedReadFraction: -1, RandomAccess: true}
	analyze := perOp(reps(5000), func() {
		if rep, err := core.Analyze(p, profile, m); err == nil {
			core.Explain(rep)
		}
	})
	r.set("core.analyze_us", us(analyze))
	r.set("queueing.lookup_ns", float64(perOp(reps(50000), func() { profile.LatencyAt(80) })))

	// service.self_us: what the handler costs beyond the layers it calls.
	r.set("service.self_us", r.values["service.handler_hit_us"]-us(decode)-us(acquire)-us(traced)-
		float64(observe)/1000-us(hit)-us(config)-us(analyze))

	// The kernel's substrate, in steady state: a fixed population of
	// pending events (or outstanding DRAM reads), each completion
	// scheduling its successor, as a running simulation does.
	nEvents, pending := reps(1<<20), 1024
	var sched events.Scheduler
	scheduled, fired := 0, 0
	var fire func()
	fire = func() {
		fired++
		if scheduled < nEvents {
			scheduled++
			sched.After(events.Duration(1+fired%97)*events.Nanosecond, fire)
		}
	}
	begin := time.Now()
	for ; scheduled < pending; scheduled++ {
		sched.At(events.Time(scheduled)*events.Nanosecond, fire)
	}
	sched.Run()
	r.set("events.ns_per_event", float64(time.Since(begin))/float64(fired))

	l2 := p.L2
	sets := l2.Sets(p.LineBytes)
	r.set("memsys.newcache_us", us(perOp(reps(200), func() { memsys.NewCache(sets, l2.Ways) })))
	cache := memsys.NewCache(sets, l2.Ways)
	rng := rand.New(rand.NewSource(1))
	lines := make([]memsys.Line, 1<<14)
	for i := range lines {
		lines[i] = memsys.Line(rng.Intn(2 * sets * l2.Ways))
	}
	i := 0
	r.set("memsys.cache_access_ns", float64(perOp(reps(1<<16), func() {
		line := lines[i&(len(lines)-1)]
		if !cache.Access(line, false) {
			cache.Fill(line, false)
		}
		i++
	})))
	var dsched events.Scheduler
	dram := memsys.NewDRAM(&dsched, p)
	nDRAM, outstanding := reps(1<<17), 64
	issued := 0
	var issue func()
	issue = func() {
		if issued < nDRAM {
			issued++
			dram.Access(memsys.Line(rng.Int63()), false, issue)
		}
	}
	begin = time.Now()
	for j := 0; j < outstanding; j++ {
		issue()
	}
	dsched.Run()
	r.set("memsys.dram_access_ns", float64(time.Since(begin))/float64(issued))

	names := []string{"127.0.0.1:18401", "127.0.0.1:18402", "127.0.0.1:18403"}
	sort.Strings(names)
	ring := cluster.NewRing(names, 0)
	k, _, _ := runner.KeyOf(cfg)
	affinity := "run|" + k.String()
	owner := perOp(reps(50000), func() { ring.Owner(affinity) })
	r.set("cluster.ring_owner_ns", float64(owner))
	lc.ringOwner = us(owner)
	return lc, nil
}
