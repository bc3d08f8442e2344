// Package gen is the benchmark's seeded request generator. A workload's
// request sequence is a pure function of (workload, seed): the same pair
// yields the same bytes in the same order, so two runs of the harness —
// or the two sides of a comparison — offer identical work. The servers
// only ever see the generated bodies, never the seed.
//
// The package deliberately imports nothing from the repository: platform
// and workload names are the wire vocabulary of /v1/analyze, and a
// generator that shared code with the system under test could not catch
// that code changing meaning.
package gen

import (
	"fmt"
	"math/rand"
)

// The harness's workloads: the three BENCHMARK.json lists, in its order, and
// the paper's tables, which are run by hand.
const (
	HitServe    = "hit_serve"
	MissServe   = "miss_serve"
	FleetZipf   = "fleet_zipf"
	TablesBatch = "tables_batch"
)

// Workloads lists every workload name.
func Workloads() []string { return []string{HitServe, MissServe, FleetZipf, TablesBatch} }

// Request is one POST /v1/analyze body.
type Request struct {
	Body []byte
	// Key indexes Sequence.Repeated for a body the sequence sends many
	// times; -1 marks a body that occurs exactly once (a never-seen
	// cache key).
	Key int
	// Class groups the requests that ask the same work of the system: a
	// cache hit, a direct measurement, or a run of one platform x routine.
	// The harness compares like with like, class by class.
	Class int
}

// Sequence is one workload's requests for one seed: the warm-up bodies
// posted once each before measurement, then an unbounded measured
// sequence addressed by index, so any number of closed-loop clients can
// claim indices from a shared counter and still send the same requests.
type Sequence struct {
	Workload string
	Seed     int64

	setup    []Request
	repeated [][]byte
	at       func(i int) Request

	// Tables lists the paper tables tables_batch regenerates, in order
	// (nil for the serving workloads). The paper's tables are a fixed
	// input: the seed does not enter.
	Tables []string
}

// Setup returns the warm-up requests, in the order to send them.
func (s *Sequence) Setup() []Request { return s.setup }

// Repeated returns the distinct bodies Request.Key indexes.
func (s *Sequence) Repeated() [][]byte { return s.repeated }

// At returns the i-th measured request (i >= 0).
func (s *Sequence) At(i int) Request { return s.at(i) }

type combo struct{ platform, workload string }

var (
	platforms = []string{"SKL", "KNL", "A64FX"}

	// servingMix is the mix of hit_serve's hot bodies and of miss_serve:
	// {SKL,KNL,A64FX} x {ISx,HPCG,PENNANT,CoMD} and SNAP on A64FX, thirteen
	// kernels of 14 to 180 ms a run. SNAP on SKL and KNL is left out
	// because one run costs 0.2 and 0.6 s: that single request would be
	// two fifths of a miss_serve block, whose point is short runs.
	// MiniGhost is left out for the reason tables_batch leaves Table VIII
	// out: its six-plane floor makes one run cost seconds at any scale. An
	// odd count keeps lat_p50_ms inside one kernel's latencies, and with
	// thirteen lat_p95_ms lies inside the costliest's.
	servingMix = append(cross(platforms, []string{"ISx", "HPCG", "PENNANT", "CoMD"}), combo{"A64FX", "SNAP"})

	// fleetPopulation is the key population of fleet_zipf: the four
	// cheapest kernels, because all fleetKeys of them are simulated during
	// set-up.
	fleetPopulation = cross([]string{"SKL", "A64FX"}, []string{"CoMD", "ISx"})

	// measuredBandwidth bounds the seeded bandwidth of a direct-measurement
	// body, inside each platform's published bandwidth-latency curve.
	measuredBandwidth = map[string][2]float64{
		"SKL": {4, 105}, "KNL": {10, 340}, "A64FX": {20, 780},
	}
)

func cross(plats, workloads []string) []combo {
	var out []combo
	for _, p := range plats {
		for _, w := range workloads {
			out = append(out, combo{p, w})
		}
	}
	return out
}

// sizes of the generated sets. They are fixed per kind of run, not flags: a
// benchmark whose mix can be tuned per run stops being one benchmark.
type sizes struct {
	hotBodies      int // hit_serve: simulated once each in set-up
	measuredBodies int // hit_serve: distinct direct-measurement bodies
	missWarmups    int // miss_serve: warm-up runs before the window
	fleetKeys      int // fleet_zipf: warmed key population
	// mix is what hit_serve's hot bodies and miss_serve's requests are
	// drawn from.
	mix []combo
}

var (
	// full: fleetKeys exceeds one backend's 512-entry runner LRU and fits
	// the three-backend fleet's 1536.
	full = sizes{hotBodies: 64, measuredBodies: 256, missWarmups: 13, fleetKeys: 540, mix: servingMix}
	// smoke is the same generator at about a hundredth of the set-up
	// work and on the four cheapest kernels only, for the test that keeps
	// the harness building and running.
	smoke = sizes{hotBodies: 4, measuredBodies: 8, missWarmups: 2, fleetKeys: 12, mix: fleetPopulation}
)

const (
	drawTable = 1 << 16
	zipfS     = 1.1
)

func workloadBody(c combo, scale string) []byte {
	return []byte(fmt.Sprintf(`{"platform":%q,"workload":%q,"scale":%s}`, c.platform, c.workload, scale))
}

// New builds the sequence for a workload and seed.
func New(workload string, seed int64) (*Sequence, error) { return build(workload, seed, full) }

// NewSmoke is New with set-up shrunk to a few requests; the measured
// sequence has the same shape.
func NewSmoke(workload string, seed int64) (*Sequence, error) { return build(workload, seed, smoke) }

func build(workload string, seed int64, sz sizes) (*Sequence, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &Sequence{Workload: workload, Seed: seed}
	switch workload {
	case HitServe:
		s.hitServe(rng, sz)
	case MissServe:
		s.missServe(rng, sz)
	case FleetZipf:
		s.fleetZipf(rng, sz)
	case TablesBatch:
		// Table VIII (MiniGhost) is left out: its runs cost seconds at any
		// scale and would be most of the batch for one routine.
		s.Tables = []string{"IV", "V", "VI", "VII", "IX"}
		s.at = func(int) Request { return Request{Key: -1} }
	default:
		return nil, fmt.Errorf("gen: unknown workload %q (want one of %v)", workload, Workloads())
	}
	return s, nil
}

// stratified returns n combos drawn so every combo appears floor(n/len)
// times and the remainder is a seeded choice: set-up cost then barely
// depends on the seed (a SNAP/KNL run costs 35x a CoMD/SKL one).
func stratified(rng *rand.Rand, from []combo, n int) []combo {
	out := make([]combo, 0, n)
	for len(out)+len(from) <= n {
		out = append(out, from...)
	}
	for _, i := range rng.Perm(len(from))[:n-len(out)] {
		out = append(out, from[i])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// hitServe: 64 hot workload bodies simulated once in set-up; the measured
// sequence draws 3 in 4 requests uniformly from them and 1 in 4 from 256
// direct-measurement bodies, so no measured request reaches the kernel.
func (s *Sequence) hitServe(rng *rand.Rand, sz sizes) {
	hotBodies, measuredBodies := sz.hotBodies, sz.measuredBodies
	for _, c := range stratified(rng, sz.mix, hotBodies) {
		// Six decimals in [0.002, 0.01): distinct cache keys, all below
		// the workloads' operation floor, so set-up cost is set by the
		// combos alone. The window never reaches the kernel anyway.
		scale := fmt.Sprintf("%.6f", 0.002+0.008*rng.Float64())
		s.repeated = append(s.repeated, workloadBody(c, scale))
	}
	for i := 0; i < hotBodies; i++ {
		s.setup = append(s.setup, Request{Body: s.repeated[i], Key: i})
	}
	for i := 0; i < measuredBodies; i++ {
		p := platforms[rng.Intn(len(platforms))]
		bw := measuredBandwidth[p]
		body := fmt.Sprintf(`{"platform":%q,"measurement":{"routine":"r%d","bandwidth_gbs":%.3f,"random_access":%t}}`,
			p, i, bw[0]+(bw[1]-bw[0])*rng.Float64(), rng.Intn(2) == 0)
		s.repeated = append(s.repeated, []byte(body))
	}
	draws := make([]int32, drawTable)
	for i := range draws {
		if rng.Intn(4) == 0 {
			draws[i] = int32(hotBodies + rng.Intn(measuredBodies))
		} else {
			draws[i] = int32(rng.Intn(hotBodies))
		}
	}
	s.at = func(i int) Request {
		k := int(draws[i%drawTable])
		if k < hotBodies {
			return Request{Body: s.repeated[k], Key: k}
		}
		return Request{Body: s.repeated[k], Key: k, Class: 1}
	}
}

// missServe: every body is a never-seen cache key. The request index rides
// in the ninth decimal of scale; below scale 0.01 the workloads floor
// their operation budget, so the cost of a request is set by its
// platform x routine alone. Requests come in blocks of one of each combo in
// a seeded order, so any window holds the same mix.
func (s *Sequence) missServe(rng *rand.Rand, sz sizes) {
	const blocks = 1 << 10
	n := len(sz.mix)
	order := make([]uint8, 0, blocks*n)
	for b := 0; b < blocks; b++ {
		for _, i := range rng.Perm(n) {
			order = append(order, uint8(i))
		}
	}
	base := 0.002 + 0.006*rng.Float64()
	body := func(c combo, i int) []byte {
		return workloadBody(c, fmt.Sprintf("%.9f", base+float64(i+1)*1e-9))
	}
	// One warm-up run per combo: the heap and the hierarchy pool reach
	// their working size before the window opens.
	for i, c := range stratified(rng, sz.mix, sz.missWarmups) {
		s.setup = append(s.setup, Request{Body: body(c, -2-i), Key: -1})
	}
	s.at = func(i int) Request {
		c := int(order[i%len(order)])
		return Request{Body: body(sz.mix[c], i), Key: -1, Class: c}
	}
}

// fleetZipf: a population of fleetKeys cache keys, every one simulated in
// set-up, drawn with Zipf(1.1) popularity. The population exceeds one
// backend's runner LRU and fits the fleet's, so every measured request is a
// hit that carries the proxy hop for as long as routing keeps each key on
// its owner, and a miss says it did not. (Never-seen keys mixed into the
// window, one in 16 and then one in 512, made every number follow the
// kernel's speed or the Go scheduler's handling of a hit beside a running
// kernel; miss_serve measures the kernel.)
func (s *Sequence) fleetZipf(rng *rand.Rand, sz sizes) {
	fleetKeys := sz.fleetKeys
	for i, c := range stratified(rng, fleetPopulation, fleetKeys) {
		s.repeated = append(s.repeated, workloadBody(c, fmt.Sprintf("%.6f", 0.002+float64(i+1)*1e-6)))
	}
	for _, i := range rng.Perm(fleetKeys) {
		s.setup = append(s.setup, Request{Body: s.repeated[i], Key: i})
	}
	// Popularity rank r maps to key rank[r], so which key is hot is seeded
	// too, and with it which backend owns the hot keys.
	rank := rng.Perm(fleetKeys)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(fleetKeys-1))
	draws := make([]int32, drawTable)
	for i := range draws {
		draws[i] = int32(rank[zipf.Uint64()])
	}
	s.at = func(i int) Request {
		k := int(draws[i%drawTable])
		return Request{Body: s.repeated[k], Key: k}
	}
}
