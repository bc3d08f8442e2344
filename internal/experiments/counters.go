// The vendor counter models: the performance-counter facilities of the
// processor vendors the paper surveys (Table I), including exactly the
// limitations that motivate the Little's-Law approach:
//
//   - only bandwidth-related events are available everywhere, and even
//     those differ by vendor (L3-miss counting on x86 vs memory-bus
//     read/write counting on ARM);
//   - Intel's latency-threshold load sampling measures dispatch-to-
//     completion (inflated by re-dispatch, TLB walks and page-table
//     walks), and reports nothing useful for prefetched streams (§II);
//   - several vendors expose no memory-latency events at all.

package experiments

import (
	"fmt"

	"littleslaw/internal/sim"
)

// visibility grades how well a vendor exposes a class of events (Table I).
type visibility int

const (
	visNo visibility = iota
	visVeryLimited
	visLimited
	visYes
)

func (v visibility) String() string {
	switch v {
	case visNo:
		return "No"
	case visVeryLimited:
		return "Very limited"
	case visLimited:
		return "Limited"
	case visYes:
		return "Yes"
	}
	return "?"
}

// vendorModel describes one vendor's counter facilities.
type vendorModel struct {
	Vendor string

	// Table I columns.
	StallBreakdown visibility
	L1MSHRQFull    visibility
	L2MSHRQFull    visibility
	MemoryLatency  visibility

	// BandwidthEvents names the events used to measure memory bandwidth
	// (empty when the vendor exposes none — the portability failure case).
	BandwidthEvents []string
	// LatencyThresholdSampling marks Intel-style loads-above-threshold
	// histograms.
	LatencyThresholdSampling bool
}

// vendorModels returns the vendor survey of Table I plus the concrete per-
// platform bandwidth events from §IV.
func vendorModels() []vendorModel {
	return []vendorModel{
		{
			Vendor:         "Intel",
			StallBreakdown: visLimited, L1MSHRQFull: visYes, L2MSHRQFull: visNo, MemoryLatency: visLimited,
			BandwidthEvents:          []string{"OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL"},
			LatencyThresholdSampling: true,
		},
		{
			Vendor:         "AMD",
			StallBreakdown: visLimited, L1MSHRQFull: visYes, L2MSHRQFull: visNo, MemoryLatency: visLimited,
			BandwidthEvents: []string{"DRAM_CHANNEL_READS", "DRAM_CHANNEL_WRITES"},
		},
		{
			Vendor:         "Cavium",
			StallBreakdown: visVeryLimited, L1MSHRQFull: visNo, L2MSHRQFull: visNo, MemoryLatency: visNo,
			BandwidthEvents: nil, // no usable memory events: the portability failure
		},
		{
			Vendor:         "Fujitsu",
			StallBreakdown: visLimited, L1MSHRQFull: visNo, L2MSHRQFull: visNo, MemoryLatency: visNo,
			BandwidthEvents: []string{"BUS_READ_TOTAL_MEM", "BUS_WRITE_TOTAL_MEM"},
		},
	}
}

// vendorModelFor maps a platform name to its vendor counter model.
func vendorModelFor(platformName string) (vendorModel, error) {
	vendor := map[string]string{"SKL": "Intel", "KNL": "Intel", "A64FX": "Fujitsu"}[platformName]
	if vendor == "" {
		return vendorModel{}, fmt.Errorf("experiments: no vendor model for platform %q", platformName)
	}
	for _, m := range vendorModels() {
		if m.Vendor == vendor {
			if platformName == "KNL" {
				m.BandwidthEvents = []string{
					"OFFCORE_RESPONSE_1:ANY_REQUEST:MCDRAM",
					"OFFCORE_RESPONSE_1:ANY_REQUEST:DDR",
				}
			}
			return m, nil
		}
	}
	return vendorModel{}, fmt.Errorf("experiments: unknown vendor %q", vendor)
}

// latencyBins are Intel's loads-above-threshold bins (§II).
var latencyBins = []int{4, 8, 16, 32, 64, 128, 256, 512}

// ThresholdSample is the fraction of sampled loads whose counter-reported
// latency exceeds each bin's threshold.
type ThresholdSample struct {
	ThresholdCycles int
	Fraction        float64
}

// thresholdCounter models Intel's latency-threshold load sampling and its
// documented inaccuracy: the counter measures first-dispatch-to-completion,
// so re-dispatched loads, TLB misses and page-table walks inflate it far
// beyond the memory latency ("Reported latency may be longer than just the
// memory latency"). For random-access runs most samples therefore land in
// the top bin even when the true loaded latency is lower; for prefetched
// streams the counter reports near-hit latencies that say nothing about
// memory (§II's hpcg example).
func thresholdCounter(m vendorModel, res *sim.Result, plat interface{ NsCycles(float64) float64 }, randomAccess bool) ([]ThresholdSample, error) {
	if !m.LatencyThresholdSampling {
		return nil, fmt.Errorf("experiments: %s has no latency-threshold sampling", m.Vendor)
	}
	meanCy := plat.NsCycles(res.MeanLoadLatencyNs)
	// Dispatch-to-completion inflation for irregular access: re-dispatches
	// after mis-speculated memory ordering plus TLB/page walks roughly
	// double the reported value and fatten the tail.
	inflation := 1.0
	tail := 0.15
	if randomAccess {
		inflation = 2.1
		tail = 0.45
	}
	reported := meanCy * inflation
	out := make([]ThresholdSample, len(latencyBins))
	for i, th := range latencyBins {
		// A smooth heavy-tailed CDF around the inflated mean: fraction of
		// samples above threshold th.
		f := 1.0 / (1.0 + (float64(th)/reported)*(float64(th)/reported)/(1+tail*4))
		if f > 1 {
			f = 1
		}
		out[i] = ThresholdSample{ThresholdCycles: th, Fraction: f}
	}
	return out, nil
}
