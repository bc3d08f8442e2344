package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"littleslaw/bench/gen"
)

// clients is the closed-loop population: the callers of this API are tools
// that wait for their answer, and the box has two cores, so two clients on
// two keep-alive connections.
const clients = 2

// sample is one completed request as its client saw it. It holds no
// pointer, so that a phase's samples can live outside the Go heap.
type sample struct {
	idx int32 // sequence index (set-up requests: position in Setup)
	key int32
	tid int32 // index into the phase's traceIDs; -1 on an untraced run
	// class is the generator's: requests of one class ask the same work.
	class int16
	ok    bool
	end   time.Duration // completion, since the phase started
	lat   time.Duration // send to last byte
	// cycle is the time since the same client's previous completion (or
	// the phase's start): lat plus what the client did between requests.
	// The cycles of a set of requests, summed and divided by the clients,
	// are the wall time those requests took.
	cycle time.Duration
}

// traceIDs are the ids the servers stamped on one response: the outermost
// tier's, and the backend's when a proxy relayed it. They join the
// harness's client spans to its handler-wrapper spans; only the traced run
// keeps them.
type traceIDs struct{ outer, backend string }

// newSampleBuf returns an empty sample slice with room for n, mapped
// outside the Go heap. The servers under test share this process's garbage
// collector, and its pacing follows the live heap: samples kept on the heap
// grew it by megabytes a second, so collections came eight times less often
// at the end of a window than at its start and throughput crept up by a
// third over the first ten seconds. Off the heap the harness's records
// leave the servers' collector as a stand-alone llserved would see it. The
// mapping lives as long as the process; where mmap is refused the heap
// serves.
func newSampleBuf(n int) []sample {
	n = max(n, 1)
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(sample{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]sample, 0, n)
	}
	return unsafe.Slice((*sample)(unsafe.Pointer(&b[0])), n)[:0]
}

// oneOff keeps a response whose body occurs once, for the sampled
// cross-check against a direct simulation.
type oneOff struct {
	idx  int32
	body []byte
	resp []byte
}

// tick is a sample of the phase's progress, taken every tickEvery: what the
// process has used and what the hypervisor has kept from the machine.
type tick struct {
	at    time.Duration // since the phase started
	done  int64         // requests completed so far
	cpu   time.Duration // process CPU so far
	steal int64         // the machine's stolen time so far, in 10 ms ticks over all CPUs
}

// tickEvery is twice the resolution of the steal counter.
const tickEvery = 20 * time.Millisecond

// phase is the outcome of driving one stretch of a sequence.
type phase struct {
	start    time.Time
	warmup   time.Duration // driven but not measured
	length   time.Duration // issue window, warm-up included: no request starts after it
	samples  []sample      // every request issued, by completion time
	ids      []traceIDs    // what sample.tid indexes (traced run only)
	oneOffs  []oneOff
	first    [][]byte // first response per repeated body, indexed by key
	failures []string // at most a few, for the report
	failed   int      // non-200, transport error, or degraded marker
	differ   int      // responses that differed from an earlier one for the same body

	cpu     time.Duration // process user+sys over wall
	mallocs uint64
	gcFrac  float64
	ticks   []tick
}

// traceOf is the trace ids a sample's response carried (zero on an untraced
// run).
func (p *phase) traceOf(s sample) traceIDs {
	if s.tid < 0 {
		return traceIDs{}
	}
	return p.ids[s.tid]
}

type clientState struct {
	done    *atomic.Int64 // the phase's completion counter
	http    *http.Client
	buf     bytes.Buffer
	traced  bool
	samples []sample // off the Go heap (newSampleBuf)
	prevEnd time.Duration
	ids     []traceIDs
	oneOffs []oneOff
	first   [][]byte
	fails   []string
	failed  int
	differ  int
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// driver owns the client connections, so set-up and measurement share the
// same two keep-alive connections.
type driver struct {
	url     string
	seq     *gen.Sequence
	clients [clients]*clientState
}

// sampleRoom is how many samples a client's buffer is mapped for per second
// of the longest phase: several times what one connection has ever carried.
// Untouched pages cost nothing, and a phase that outgrows the buffer spills
// to the heap.
const sampleRoom = 40_000

// newDriver connects the clients. seconds is the longest phase they will
// drive; traced says whether to keep the responses' trace ids.
func newDriver(url string, seq *gen.Sequence, seconds float64, traced bool) *driver {
	d := &driver{url: url + "/v1/analyze", seq: seq}
	room := max(len(seq.Setup()), int(seconds*sampleRoom))
	for i := range d.clients {
		d.clients[i] = &clientState{http: newHTTPClient(), traced: traced, samples: newSampleBuf(room)}
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.http.CloseIdleConnections()
	}
}

func (c *clientState) reset(repeated int) {
	c.samples, c.ids, c.oneOffs, c.fails = c.samples[:0], nil, nil, nil
	c.failed, c.differ, c.prevEnd = 0, 0, 0
	c.first = make([][]byte, repeated)
}

// do sends one request and records it. Everything after the last byte
// (comparison, bookkeeping) is outside the latency it reports.
func (c *clientState) do(url string, idx int, r gen.Request, t0 time.Time) {
	record := func(s sample) {
		s.cycle, c.prevEnd = s.end-c.prevEnd, s.end
		c.samples = append(c.samples, s)
		c.done.Add(1)
	}
	start := time.Now()
	s := sample{idx: int32(idx), key: int32(r.Key), tid: -1, class: int16(r.Class)}
	fail := func(format string, args ...any) {
		c.failed++
		if len(c.fails) < 3 {
			c.fails = append(c.fails, fmt.Sprintf("request %d: ", idx)+fmt.Sprintf(format, args...))
		}
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		s.lat, s.end = time.Since(start), time.Since(t0)
		fail("%v", err)
		record(s)
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	now := time.Now()
	s.lat, s.end = now.Sub(start), now.Sub(t0)
	if c.traced {
		s.tid = int32(len(c.ids))
		c.ids = append(c.ids, traceIDs{resp.Header.Get("X-Trace-Id"), resp.Header.Get("X-Backend-Trace-Id")})
	}
	switch {
	case err != nil:
		fail("reading body: %v", err)
	case resp.StatusCode != http.StatusOK:
		fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	case resp.Header.Get("X-Degraded") != "" || resp.Header.Get("X-Brownout-Mode") != "":
		fail("degraded answer (X-Degraded=%q X-Brownout-Mode=%q)",
			resp.Header.Get("X-Degraded"), resp.Header.Get("X-Brownout-Mode"))
	default:
		s.ok = true
	}
	record(s)
	if !s.ok {
		return
	}
	if r.Key < 0 {
		c.oneOffs = append(c.oneOffs, oneOff{idx: s.idx, body: r.Body, resp: bytes.Clone(c.buf.Bytes())})
		return
	}
	if prev := c.first[r.Key]; prev == nil {
		c.first[r.Key] = bytes.Clone(c.buf.Bytes())
	} else if !bytes.Equal(prev, c.buf.Bytes()) {
		c.differ++
	}
}

// run drives requests from both clients: next hands out the next request
// index, or false when the phase should stop issuing. It returns once every
// issued request has completed.
func (d *driver) run(warmup, length time.Duration, at func(i int) gen.Request, next func(t0 time.Time) (int, bool)) *phase {
	var done atomic.Int64
	for _, c := range d.clients {
		c.reset(len(d.seq.Repeated()))
		c.done = &done
	}
	use := startUsage()
	t0 := time.Now()
	// The sampler: progress, CPU and stolen time every tickEvery, until
	// the clients are finished. The tick slice is sized once, so the
	// sampler does not allocate while the clients run.
	stop := make(chan struct{})
	steal := openSteal()
	defer steal.Close()
	reading := func() tick {
		return tick{at: time.Since(t0), done: done.Load(), cpu: processCPU(), steal: steal.ticks()}
	}
	ticks := append(make([]tick, 0, int(length/tickEvery)+64), reading())
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ticks = append(ticks, reading())
			}
		}
	}()
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			for {
				i, ok := next(t0)
				if !ok {
					return
				}
				c.do(d.url, i, at(i), t0)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	ticks = append(ticks, reading())
	p := &phase{start: t0, warmup: warmup, length: length, first: make([][]byte, len(d.seq.Repeated())), ticks: ticks}
	p.cpu, p.mallocs, p.gcFrac = use.since()
	total := 0
	for _, c := range d.clients {
		total += len(c.samples)
	}
	p.samples = newSampleBuf(total)
	for _, c := range d.clients {
		for _, s := range c.samples {
			if s.tid >= 0 {
				s.tid += int32(len(p.ids))
			}
			p.samples = append(p.samples, s)
		}
		p.ids = append(p.ids, c.ids...)
		p.oneOffs = append(p.oneOffs, c.oneOffs...)
		p.failed += c.failed
		p.differ += c.differ
		p.failures = append(p.failures, c.fails...)
		for k, resp := range c.first {
			switch {
			case resp == nil:
			case p.first[k] == nil:
				p.first[k] = resp
			case !bytes.Equal(p.first[k], resp):
				p.differ++
			}
		}
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].end < p.samples[j].end })
	sort.Slice(p.oneOffs, func(i, j int) bool { return p.oneOffs[i].idx < p.oneOffs[j].idx })
	return p
}

// setup posts the sequence's warm-up requests once each.
func (d *driver) setup() *phase {
	reqs := d.seq.Setup()
	var n atomic.Int64
	return d.run(0, 0, func(i int) gen.Request { return reqs[i] }, func(time.Time) (int, bool) {
		i := int(n.Add(1)) - 1
		return i, i < len(reqs)
	})
}

// warmup is how long a measured phase is driven before its numbers count
// (a short window gives a fifth of itself): the connections, the
// collector's pacing and the caches below the program settle while the same
// sequence runs.
const warmup = 2 * time.Second

// measure issues the measured sequence from index from for warmup+length,
// then lets the requests in flight finish. It returns the next unused index.
func (d *driver) measure(from int, warmup, length time.Duration) (*phase, int) {
	length += warmup
	var n atomic.Int64
	n.Store(int64(from))
	p := d.run(warmup, length, d.seq.At, func(t0 time.Time) (int, bool) {
		if time.Since(t0) >= length {
			return 0, false
		}
		return int(n.Add(1)) - 1, true
	})
	return p, int(n.Load())
}
