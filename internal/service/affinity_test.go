package service

import (
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/runner"
	"littleslaw/internal/workloads"
)

// TestAffinityKeyIsRunnerKey holds the routing key to the handler: a
// workload-bodied analyze request has an affinity key exactly when the
// handler can resolve it to a run, and that key is the runner key of the
// very config the handler simulates. A proxy that hashed anything else
// would route a request away from the backend whose cache holds its answer.
func TestAffinityKeyIsRunnerKey(t *testing.T) {
	names := []string{"NoSuchWorkload"}
	for _, w := range append(workloads.All(), workloads.Extras()...) {
		names = append(names, w.Name())
	}
	variants := []*VariantSpec{
		nil,
		{Vectorized: true},
		{SWPrefetchL2: true, PrefetchDistance: 8},
		{SWPrefetchL1: true, Tiled: true, UnrollJam: true, NoFuse: true},
	}
	resolved, refused := 0, 0
	for _, p := range platform.All() {
		for _, name := range names {
			for _, v := range variants {
				for threads := 0; threads <= p.SMTWays+1; threads++ {
					for _, scale := range []float64{0, 0.02, 0.1} {
						req := &AnalyzeRequest{Platform: p.Name, Workload: name, Variant: v, ThreadsPerCore: threads, Scale: scale}
						key, ok := req.AffinityKey()
						_, cfg, err := resolveRun(p, req.Workload, req.Variant, req.ThreadsPerCore, req.Scale)
						if ok != (err == nil) {
							t.Fatalf("%+v (variant %+v): affinity ok=%v, handler resolution err=%v", *req, v, ok, err)
						}
						if err != nil {
							refused++
							continue
						}
						k, cacheable, err := runner.KeyOf(cfg)
						if err != nil || !cacheable {
							t.Fatalf("%+v: handler config has no runner key (cacheable=%v, err=%v)", *req, cacheable, err)
						}
						if want := "run|" + k.String(); key != want {
							t.Fatalf("%+v (variant %+v):\naffinity key %q\nrunner key   %q", *req, v, key, want)
						}
						resolved++
					}
				}
			}
		}
	}
	if resolved == 0 || refused == 0 {
		t.Fatalf("resolved %d, refused %d: both paths must be exercised", resolved, refused)
	}
}
