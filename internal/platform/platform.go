// Package platform describes the machines the paper evaluates on
// (Table III): Intel Xeon Platinum 8160 "Skylake", Intel Xeon Phi 7250
// "Knights Landing" in flat-MCDRAM mode, and Fujitsu A64FX with HBM2.
//
// A Platform carries both the architectural facts the metric consumes
// (core count, cache-line size, L1/L2 MSHR capacities, theoretical peak
// bandwidth) and the micro-architectural parameters the memory-system
// simulator is built from (cache geometry, prefetcher limits, DRAM channel
// and bank timing). The DRAM timing values are calibrated so that the
// simulated loaded-latency curves land near the paper's X-Mem measurements;
// see the calibration tests in internal/xmem.
package platform

import (
	"fmt"

	"littleslaw/internal/events"
)

// CacheConfig describes one private cache level.
type CacheConfig struct {
	SizeBytes int     // total capacity in bytes
	Ways      int     // set associativity
	MSHRs     int     // miss-status-handling registers (outstanding line misses)
	HitCycles float64 // load-to-use hit latency in core cycles
}

// Sets returns the number of sets given a line size.
func (c CacheConfig) Sets(lineBytes int) int {
	return c.SizeBytes / (c.Ways * lineBytes)
}

// PrefetcherConfig describes the L2 hardware stream prefetcher.
type PrefetcherConfig struct {
	Streams  int // stream-table entries (KNL tracks 16 streams, §IV-B)
	Distance int // prefetch-ahead distance in cache lines
	Degree   int // lines issued per trigger
}

// MemoryConfig describes the memory technology behind the last private
// level: a multi-channel, multi-bank device whose loaded latency emerges
// from channel/bank queueing in the simulator.
type MemoryConfig struct {
	Tech            string  // "DDR4", "MCDRAM", "HBM2"
	TheoreticalGBs  float64 // vendor peak bandwidth (Table III)
	Channels        int     // independent channels (address-interleaved)
	BanksPerChannel int     // banks per channel (bank-level parallelism)
	BaseLatencyNs   float64 // uncontended round trip excluding bank service and bus transfer
	RowHitNs        float64 // bank busy time on a row-buffer hit
	RowMissNs       float64 // bank busy time on a row-buffer miss (activate+precharge)
	RowBytes        int     // row-buffer (DRAM page) size
	// BusGBsPerChannel overrides the effective per-channel data-bus rate
	// (0 means TheoreticalGBs/Channels). HBM2 in particular sustains well
	// below its theoretical per-channel rate.
	BusGBsPerChannel float64
}

// ChannelGBs returns the effective per-channel bandwidth in GB/s.
func (m MemoryConfig) ChannelGBs() float64 {
	if m.BusGBsPerChannel > 0 {
		return m.BusGBsPerChannel
	}
	return m.TheoreticalGBs / float64(m.Channels)
}

// TransferNs returns the channel bus occupancy for one line of the given size.
func (m MemoryConfig) TransferNs(lineBytes int) float64 {
	return float64(lineBytes) / m.ChannelGBs()
}

// Platform is a full machine description.
type Platform struct {
	Name   string
	Vendor string
	ISA    string

	Cores   int     // physical cores used in the paper's runs
	FreqHz  float64 // fixed core frequency used in the paper
	SMTWays int     // maximum hardware threads per core (1 = no SMT)

	LineBytes     int // cache-line size (A64FX uses 256-byte lines)
	VectorLanes64 int // 64-bit lanes per vector register (AVX-512/SVE-512: 8)

	// DemandWindow is the maximum number of demand line-misses a single
	// hardware thread's out-of-order engine can keep in flight before any
	// MSHR limit, reflecting ROB/load-queue depth.
	DemandWindow int

	// ScalarIssuePenalty multiplies the compute delay between dependent
	// scalar irregular accesses; it models A64FX's weak scalar pipeline
	// relative to the x86 cores (§IV-C observes far lower base MLP there).
	ScalarIssuePenalty float64

	// SMTComputeShare sets how SMT threads share the core pipeline: with n
	// active threads each thread's compute delay scales by
	// max(1, SMTComputeShare × n^(2/3)). The sublinear exponent reflects
	// that co-resident threads overlap stalls; the share constant is
	// calibrated against the paper's CoMD SMT ladder (§IV-D): below 1
	// (KNL) a single thread cannot fill the issue width, so additional
	// threads are cheap.
	SMTComputeShare float64

	// VectorIssuePenalty multiplies compute delays of vectorized
	// gather/scatter-heavy loops, modelling how far the platform's vector
	// memory pipeline falls short of the x86 cores (A64FX SVE gathers are
	// substantially slower, §IV-B/§IV-C).
	VectorIssuePenalty float64

	// WeakStoreForwarding marks cores that stall on store-to-load
	// forwarding patterns (A64FX, §IV-F: compiler-fused loops in SNAP ran
	// 4× slower until fusion was disabled).
	WeakStoreForwarding bool

	L1 CacheConfig
	L2 CacheConfig
	L3 *CacheConfig // shared LLC; nil on KNL (flat MCDRAM) and A64FX

	Prefetcher PrefetcherConfig
	Memory     MemoryConfig

	// MemCache, if non-nil, puts a direct-mapped memory-side cache built
	// from a faster tier in front of Memory — KNL's MCDRAM cache mode.
	MemCache *MemCacheConfig
}

// MemCacheConfig describes a memory-side cache (MCDRAM cache mode): a
// direct-mapped, line-granular cache whose hits are served by the fast
// tier and whose misses fall through to the platform's Memory.
type MemCacheConfig struct {
	// SizeBytes is the cache capacity (scaled with the workloads'
	// footprints the way the simulated problem sizes are).
	SizeBytes int
	// Fast is the fast tier's timing/geometry (the MCDRAM device).
	Fast MemoryConfig
}

// Clock returns the core clock domain.
func (p *Platform) Clock() events.Clock { return events.NewClock(p.FreqHz) }

// CyclesNs converts core cycles to nanoseconds on this platform.
func (p *Platform) CyclesNs(cycles float64) float64 { return cycles / p.FreqHz * 1e9 }

// NsCycles converts nanoseconds to core cycles on this platform.
func (p *Platform) NsCycles(ns float64) float64 { return ns * p.FreqHz / 1e9 }

// PeakGBs returns the theoretical peak memory bandwidth (the denominator of
// the percentage column in Tables IV–IX).
func (p *Platform) PeakGBs() float64 { return p.Memory.TheoreticalGBs }

// Validate checks internal consistency.
func (p *Platform) Validate() error {
	switch {
	case p.Cores <= 0:
		return fmt.Errorf("platform %s: cores must be positive", p.Name)
	case p.FreqHz <= 0:
		return fmt.Errorf("platform %s: frequency must be positive", p.Name)
	case p.SMTWays < 1:
		return fmt.Errorf("platform %s: SMT ways must be at least 1", p.Name)
	case p.LineBytes <= 0 || p.LineBytes&(p.LineBytes-1) != 0:
		return fmt.Errorf("platform %s: line size must be a positive power of two", p.Name)
	case p.L1.MSHRs <= 0 || p.L2.MSHRs <= 0:
		return fmt.Errorf("platform %s: MSHR capacities must be positive", p.Name)
	case p.L2.MSHRs < p.L1.MSHRs:
		return fmt.Errorf("platform %s: L2 MSHRs (%d) below L1 MSHRs (%d)", p.Name, p.L2.MSHRs, p.L1.MSHRs)
	case p.L1.Sets(p.LineBytes) <= 0 || p.L2.Sets(p.LineBytes) <= 0:
		return fmt.Errorf("platform %s: cache smaller than ways×line", p.Name)
	case p.Memory.Channels <= 0 || p.Memory.BanksPerChannel <= 0:
		return fmt.Errorf("platform %s: memory geometry must be positive", p.Name)
	case p.Memory.TheoreticalGBs <= 0:
		return fmt.Errorf("platform %s: peak bandwidth must be positive", p.Name)
	case p.DemandWindow <= 0:
		return fmt.Errorf("platform %s: demand window must be positive", p.Name)
	}
	if mc := p.MemCache; mc != nil {
		if mc.SizeBytes < p.LineBytes {
			return fmt.Errorf("platform %s: memory-side cache smaller than a line", p.Name)
		}
		if mc.Fast.Channels <= 0 || mc.Fast.TheoreticalGBs <= 0 {
			return fmt.Errorf("platform %s: memory-side cache fast tier misconfigured", p.Name)
		}
	}
	return nil
}

// SKL returns the Intel Xeon Platinum 8160 model: 24 cores fixed at
// 2.1 GHz, six DDR4-2666 channels (128 GB/s), 10 L1 / 16 L2 MSHRs.
func SKL() *Platform {
	return &Platform{
		Name:               "SKL",
		Vendor:             "Intel",
		ISA:                "x86-64/AVX-512",
		Cores:              24,
		FreqHz:             2.1e9,
		SMTWays:            2,
		LineBytes:          64,
		VectorLanes64:      8,
		DemandWindow:       20,
		ScalarIssuePenalty: 1.0,
		SMTComputeShare:    1.03,
		VectorIssuePenalty: 1.0,
		L1:                 CacheConfig{SizeBytes: 32 << 10, Ways: 8, MSHRs: 10, HitCycles: 4},
		L2:                 CacheConfig{SizeBytes: 1 << 20, Ways: 16, MSHRs: 16, HitCycles: 14},
		L3:                 &CacheConfig{SizeBytes: 32 << 20, Ways: 16, MSHRs: 48, HitCycles: 60},
		Prefetcher:         PrefetcherConfig{Streams: 16, Distance: 20, Degree: 2},
		Memory: MemoryConfig{
			Tech:             "DDR4",
			TheoreticalGBs:   128,
			Channels:         6,
			BanksPerChannel:  18,
			BaseLatencyNs:    32,
			RowHitNs:         15,
			RowMissNs:        38,
			RowBytes:         8 << 10,
			BusGBsPerChannel: 18.7,
		},
	}
}

// KNL returns the Intel Xeon Phi 7250 model in flat mode with all data in
// MCDRAM: the paper uses 64 of the 68 cores at a fixed 1.4 GHz, 400 GB/s
// MCDRAM, 12 L1 / 32 L2 MSHRs, and an L2 prefetcher limited to 16 streams.
func KNL() *Platform {
	return &Platform{
		Name:               "KNL",
		Vendor:             "Intel",
		ISA:                "x86-64/AVX-512",
		Cores:              64,
		FreqHz:             1.4e9,
		SMTWays:            4,
		LineBytes:          64,
		VectorLanes64:      8,
		DemandWindow:       12,
		ScalarIssuePenalty: 1.0,
		SMTComputeShare:    0.83,
		VectorIssuePenalty: 1.0,
		L1:                 CacheConfig{SizeBytes: 32 << 10, Ways: 8, MSHRs: 12, HitCycles: 4},
		L2:                 CacheConfig{SizeBytes: 512 << 10, Ways: 16, MSHRs: 32, HitCycles: 17},
		L3:                 nil,
		Prefetcher:         PrefetcherConfig{Streams: 16, Distance: 16, Degree: 2},
		Memory: MemoryConfig{
			Tech:             "MCDRAM",
			TheoreticalGBs:   400,
			Channels:         16,
			BanksPerChannel:  22,
			BaseLatencyNs:    104,
			RowHitNs:         15,
			RowMissNs:        45,
			RowBytes:         2 << 10,
			BusGBsPerChannel: 22.5,
		},
	}
}

// A64FX returns the Fujitsu A64FX model: 48 cores at 1.8 GHz, four HBM2
// stacks (1024 GB/s), 256-byte cache lines, 12 L1 / ~20 L2 MSHRs, SVE-512,
// no SMT.
func A64FX() *Platform {
	return &Platform{
		Name:                "A64FX",
		Vendor:              "Fujitsu",
		ISA:                 "AArch64/SVE-512",
		Cores:               48,
		FreqHz:              1.8e9,
		SMTWays:             1,
		LineBytes:           256,
		VectorLanes64:       8,
		DemandWindow:        12,
		ScalarIssuePenalty:  3.2,
		SMTComputeShare:     1.0,
		VectorIssuePenalty:  2.2,
		WeakStoreForwarding: true,
		L1:                  CacheConfig{SizeBytes: 64 << 10, Ways: 4, MSHRs: 12, HitCycles: 5},
		L2:                  CacheConfig{SizeBytes: 512 << 10, Ways: 16, MSHRs: 20, HitCycles: 40},
		L3:                  nil,
		Prefetcher:          PrefetcherConfig{Streams: 16, Distance: 8, Degree: 2},
		Memory: MemoryConfig{
			Tech:             "HBM2",
			TheoreticalGBs:   1024,
			Channels:         32,
			BanksPerChannel:  5,
			BaseLatencyNs:    62,
			RowHitNs:         15,
			RowMissNs:        45,
			RowBytes:         2 << 10,
			BusGBsPerChannel: 25,
		},
	}
}

// All returns the three paper platforms in Table III order.
func All() []*Platform { return []*Platform{SKL(), KNL(), A64FX()} }

// ByName returns a fresh copy of the named platform (case-sensitive:
// "SKL", "KNL", "A64FX") or an error. It builds only that one: the proxy's
// affinity key and every analysis call it once a request, and callers
// mutate the copy for ablations.
func ByName(name string) (*Platform, error) {
	switch name {
	case "SKL":
		return SKL(), nil
	case "KNL":
		return KNL(), nil
	case "A64FX":
		return A64FX(), nil
	}
	return nil, fmt.Errorf("platform: unknown platform %q (want SKL, KNL or A64FX)", name)
}
