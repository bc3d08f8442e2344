package experiments

import (
	"fmt"

	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
)

// PaperProfileFor returns the bandwidth→latency curve assembled from the
// paper's published anchor pairs for one of the three machines. It is the
// deterministic stand-in for the X-Mem characterization used by the test
// suite (including the golden-table harness) and by the service's
// -paper-profiles fast-start mode: reproducible to the byte and free,
// where the honest sweep simulates every operating point (at the default
// 300 probes, about 0.4 s for SKL, 0.8–1 s for A64FX and 2–2.6 s for KNL on
// a 2-core x86-64 box).
func PaperProfileFor(p *platform.Platform) (*queueing.Curve, error) {
	switch p.Name {
	case "SKL":
		return queueing.NewCurve([]queueing.CurvePoint{
			{BandwidthGBs: 0.5, LatencyNs: 82}, {BandwidthGBs: 37.9, LatencyNs: 93},
			{BandwidthGBs: 58.2, LatencyNs: 100}, {BandwidthGBs: 92.9, LatencyNs: 117},
			{BandwidthGBs: 106.9, LatencyNs: 145}, {BandwidthGBs: 112, LatencyNs: 220},
		})
	case "KNL":
		return queueing.NewCurve([]queueing.CurvePoint{
			{BandwidthGBs: 1, LatencyNs: 166}, {BandwidthGBs: 122.9, LatencyNs: 167},
			{BandwidthGBs: 233, LatencyNs: 180}, {BandwidthGBs: 296, LatencyNs: 209},
			{BandwidthGBs: 344, LatencyNs: 238}, {BandwidthGBs: 365, LatencyNs: 330},
		})
	case "A64FX":
		return queueing.NewCurve([]queueing.CurvePoint{
			{BandwidthGBs: 2, LatencyNs: 142}, {BandwidthGBs: 271, LatencyNs: 156},
			{BandwidthGBs: 575, LatencyNs: 179}, {BandwidthGBs: 649, LatencyNs: 188},
			{BandwidthGBs: 788, LatencyNs: 280}, {BandwidthGBs: 812, LatencyNs: 330},
		})
	}
	return nil, fmt.Errorf("experiments: no paper profile for platform %q", p.Name)
}
