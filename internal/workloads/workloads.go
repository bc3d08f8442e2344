// Package workloads models the memory behaviour of the six HPC proxy
// applications the paper evaluates (Table II): ISx, HPCG, PENNANT, CoMD,
// MiniGhost and SNAP — each reduced to its dominant routine.
//
// A workload is a generator of line-granular memory operations plus the
// issue-side parameters (demand window, compute gaps) that determine how
// much MLP the routine exposes. Optimization variants (vectorized, tiled,
// software-prefetched, fused) rewrite those parameters and the emitted
// access stream the way the corresponding compiler transformation rewrites
// the loop. Cache hits, prefetcher behaviour, MSHR occupancy and DRAM
// traffic all emerge from simulating the stream against internal/memsys.
//
// Issue-side parameters are calibrated per workload so that the simulated
// bandwidths and occupancies land near the paper's Tables IV–IX; the
// memory system itself is calibrated only once, against the X-Mem curves
// (see internal/xmem).
package workloads

import (
	"math/rand"
	"strconv"

	"littleslaw/internal/core"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
)

// fingerprint renders the generator identity a workload Config declares
// for the runner cache: the workload, its full variant state and the work
// scale determine the emitted operation stream (the platform and the
// scalar sim fields are keyed separately by the runner). The bytes are
// those of the format "workloads/%s|%+v|scale=%g", appended without
// reflection because every served analysis renders it.
func fingerprint(name string, v Variant, scale float64) string {
	b := make([]byte, 0, 160)
	b = append(b, "workloads/"...)
	b = append(b, name...)
	b = append(b, "|{Vectorized:"...)
	b = strconv.AppendBool(b, v.Vectorized)
	b = append(b, " SWPrefetchL2:"...)
	b = strconv.AppendBool(b, v.SWPrefetchL2)
	b = append(b, " SWPrefetchL1:"...)
	b = strconv.AppendBool(b, v.SWPrefetchL1)
	b = append(b, " PrefetchDistance:"...)
	b = strconv.AppendInt(b, int64(v.PrefetchDistance), 10)
	b = append(b, " Tiled:"...)
	b = strconv.AppendBool(b, v.Tiled)
	b = append(b, " UnrollJam:"...)
	b = strconv.AppendBool(b, v.UnrollJam)
	b = append(b, " NoFuse:"...)
	b = strconv.AppendBool(b, v.NoFuse)
	b = append(b, "}|scale="...)
	b = strconv.AppendFloat(b, scale, 'g', -1, 64)
	return string(b)
}

// Variant selects the optimization state of a workload, mirroring the
// Source column of Tables IV–IX.
type Variant struct {
	// Vectorized: the key loop compiled with (possibly forced) vectorization.
	Vectorized bool
	// SWPrefetchL2: user-directed software prefetching into the L2.
	SWPrefetchL2 bool
	// SWPrefetchL1: user-directed software prefetching into the L1 — the
	// wrong level for random-access routines, since each prefetch occupies
	// the very L1 MSHR the demand loads are starved of (§III-C).
	SWPrefetchL1 bool
	// PrefetchDistance in iterations (0 = workload default).
	PrefetchDistance int
	// Tiled: loop tiling applied (MiniGhost, DGEMM).
	Tiled bool
	// UnrollJam: register tiling applied (DGEMM, §III-C).
	UnrollJam bool
	// NoFuse: compiler loop fusion disabled (SNAP on A64FX, §IV-F).
	NoFuse bool
}

// Label renders the variant the way the tables' Source column does.
func (v Variant) Label(threads int) string {
	s := "base"
	mods := ""
	if v.Vectorized {
		mods += ", vect"
	}
	if v.Tiled {
		mods += ", tiling"
	}
	if v.UnrollJam {
		mods += ", unroll-jam"
	}
	if threads >= 2 {
		switch threads {
		case 2:
			mods += ", 2-ht"
		case 4:
			mods += ", 4-ht"
		}
	}
	if v.SWPrefetchL2 {
		mods += ", l2-pref"
	}
	if v.SWPrefetchL1 {
		mods += ", l1-pref"
	}
	if v.NoFuse {
		mods += ", nofuse"
	}
	if mods != "" {
		return "+" + mods[1:]
	}
	return s
}

// Workload is one application routine from Table II at one optimization
// state. The one implementation is a table entry (see apps).
type Workload interface {
	// Name is the application ("ISx").
	Name() string
	// Routine is the dominant routine analyzed ("count_local_keys").
	Routine() string
	// RandomAccess reports whether irregular accesses dominate (the
	// recipe's L1-vs-L2 classification input).
	RandomAccess() bool
	// Capabilities describes the routine for the recipe.
	Capabilities(p *platform.Platform, threadsPerCore int) core.Capabilities
	// Variant returns the current optimization state.
	Variant() Variant
	// WithVariant returns a copy at a different optimization state.
	WithVariant(v Variant) Workload
	// Config builds the node-simulation configuration. scale multiplies
	// the per-thread operation budget (1.0 = benchmark size; tests use
	// smaller values).
	Config(p *platform.Platform, threadsPerCore int, scale float64) sim.Config
	// Measurement reads a simulated run of this workload the way
	// CrayPat-style counters would be read on real hardware: the input
	// core.Analyze takes.
	Measurement(res *sim.Result) core.Measurement
}

// workload is an application at one optimization state: its name, its
// dominant routine, the routine's static traits and the function that
// builds its simulation config.
type workload struct {
	name    string
	routine string
	// caps holds the traits the recipe reads that no variant changes.
	// IrregularAccess is also the RandomAccess answer; AlreadyVectorized
	// set here means the compiler vectorizes the loop in every variant.
	caps   core.Capabilities
	config func(v Variant, p *platform.Platform, threadsPerCore int, scale float64) sim.Config
	v      Variant
}

// apps holds each application at its base variant: the six of Table II in
// table order, then the extras. The entries are shared, so nothing may
// modify one; WithVariant copies.
var apps = [...]*workload{
	{name: "ISx", routine: "count_local_keys", config: isxConfig,
		caps: core.Capabilities{Vectorizable: true, IrregularAccess: true}},
	{name: "HPCG", routine: "ComputeSPMV_ref", config: hpcgConfig,
		// Four streams: vals, indices, y, and the x gather walk.
		caps: core.Capabilities{Vectorizable: true, StreamCount: 4}},
	{name: "PENNANT", routine: "setCornerDiv", config: pennantConfig,
		// Vectorizing is safe but needs forcing (restrict/pragma).
		caps: core.Capabilities{Vectorizable: true, IrregularAccess: true}},
	{name: "CoMD", routine: "eamForce", config: comdConfig,
		caps: core.Capabilities{Vectorizable: true, IrregularAccess: true}},
	{name: "MiniGhost", routine: "mg_stencil_3d27pt", config: minighostConfig,
		// The compiler auto-vectorizes the x loop; nine read pencils plus
		// the output stream.
		caps: core.Capabilities{Vectorizable: true, AlreadyVectorized: true, Tileable: true, StreamCount: 10}},
	{name: "SNAP", routine: "dim3_sweep", config: snapConfig,
		// The compiler vectorizes the small angle loops.
		caps: core.Capabilities{Vectorizable: true, AlreadyVectorized: true, ShortLoops: true, Fusable: true, StreamCount: 6}},
	{name: "DGEMM", routine: "dgemm_kernel", config: dgemmConfig,
		// Compilers vectorize the inner product.
		caps: core.Capabilities{Vectorizable: true, AlreadyVectorized: true, Tileable: true, StreamCount: 3}},
}

// tableII is how many of apps Table II lists.
const tableII = 6

func (w *workload) Name() string       { return w.name }
func (w *workload) Routine() string    { return w.routine }
func (w *workload) RandomAccess() bool { return w.caps.IrregularAccess }
func (w *workload) Variant() Variant   { return w.v }

func (w *workload) WithVariant(v Variant) Workload {
	c := *w
	c.v = v
	return &c
}

func (w *workload) Capabilities(p *platform.Platform, threads int) core.Capabilities {
	c := w.caps
	c.AlreadyVectorized = c.AlreadyVectorized || w.v.Vectorized
	c.SMTWays = p.SMTWays
	c.CurrentThreads = threads
	return c
}

func (w *workload) Config(p *platform.Platform, threadsPerCore int, scale float64) sim.Config {
	cfg := w.config(w.v, p, threadsPerCore, scale)
	cfg.Fingerprint = fingerprint(w.name, w.v, scale)
	return cfg
}

func (w *workload) Measurement(res *sim.Result) core.Measurement {
	return core.Measurement{
		Routine:                w.routine,
		BandwidthGBs:           res.TotalGBs,
		ActiveCores:            res.Cores,
		ThreadsPerCore:         res.ThreadsPerCore,
		PrefetchedReadFraction: res.PrefetchedReadFraction,
		RandomAccess:           w.RandomAccess(),
	}
}

// All returns the six Table II workloads at their base variant, in table
// order.
func All() []Workload { return interfaces(apps[:tableII]) }

// Extras returns workloads beyond Table II (currently DGEMM, the §III-C
// unroll-and-jam example). ByName resolves them too.
func Extras() []Workload { return interfaces(apps[tableII:]) }

func interfaces(ws []*workload) []Workload {
	out := make([]Workload, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}

// ByName returns the named workload (case-sensitive application name) at
// its base variant. It allocates nothing.
func ByName(name string) (Workload, bool) {
	for _, w := range apps {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// seedFor derives a deterministic per-thread RNG seed.
func seedFor(app string, coreID, threadID int) int64 {
	h := int64(1469598103934665603)
	for _, c := range app {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h ^ int64(coreID*977+threadID*131071)
}

func newRNG(app string, coreID, threadID int) *rand.Rand {
	return rand.New(rand.NewSource(seedFor(app, coreID, threadID)))
}

// scaleOps applies the scale factor with a sane floor.
func scaleOps(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 200 {
		n = 200
	}
	return n
}

// alignLine clips an address to the platform's line granularity.
func alignLine(addr uint64, p *platform.Platform) uint64 {
	return addr &^ uint64(p.LineBytes-1)
}
