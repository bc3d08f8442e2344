package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/service"
)

// realBackend is a full in-process llserved: its own simulation runner and
// metrics registry, so per-server cache behavior is observable.
type realBackend struct {
	ts  *httptest.Server
	srv *service.Server
}

// newServiceBackends boots n real llserved instances. Admission control is
// off and each server gets an isolated fault injector (none of these tests
// arm backend faults) plus its own runner cache — the thing affinity
// routing is supposed to exploit.
func newServiceBackends(t *testing.T, n int, ceiling float64, inj *faults.Injector) []*realBackend {
	t.Helper()
	if inj == nil {
		var err error
		if inj, err = faults.New(1); err != nil {
			t.Fatalf("faults.New: %v", err)
		}
	}
	backends := make([]*realBackend, n)
	for i := range backends {
		srv := service.New(service.Config{
			SimRunner:     runner.New(64),
			LimitCeiling:  ceiling,
			FaultInjector: inj,
			// Paper anchor curves: tests must not pay the multi-second
			// X-Mem characterization per backend.
			ProfileFor: func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
				return experiments.PaperProfileFor(p)
			},
		})
		b := &realBackend{srv: srv, ts: httptest.NewServer(srv.Handler())}
		t.Cleanup(b.ts.Close)
		backends[i] = b
	}
	return backends
}

// scrapeMetric fetches one unlabeled metric value from a /metrics endpoint.
func scrapeMetric(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", baseURL, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("metric %s not found at %s", name, baseURL)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func runnerCacheTotals(t *testing.T, backends []*realBackend) (hits, misses float64) {
	t.Helper()
	for _, b := range backends {
		hits += scrapeMetric(t, b.ts.URL, "llserved_runner_cache_hits_total")
		misses += scrapeMetric(t, b.ts.URL, "llserved_runner_cache_misses_total")
	}
	return hits, misses
}

// analyzeBodies builds k distinct cacheable workload analyses (scale-varied
// ISx runs on KNL).
func analyzeBodies(t *testing.T, k int) []string {
	t.Helper()
	bodies := make([]string, k)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"platform":"KNL","workload":"ISx","scale":%g}`, 0.02+0.01*float64(i))
		req, err := service.DecodeAnalyzeRequest([]byte(bodies[i]))
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if _, ok := req.AffinityKey(); !ok {
			t.Fatalf("body %d has no affinity key; the experiment would measure nothing", i)
		}
	}
	return bodies
}

func postOK(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post %s: status %d", url, resp.StatusCode)
	}
}

// TestClusterCacheAffinityBeatsRandom is the acceptance experiment for the
// routing policy: replaying K distinct analyses for R rounds against three
// real llserved backends, consistent-hash affinity pays the simulation cost
// once per key fleet-wide (K misses), while spreading the same traffic
// round-robin pays it once per key per backend it lands on. The win is read
// from the backends' own llserved_runner_* cache metrics.
func TestClusterCacheAffinityBeatsRandom(t *testing.T) {
	const (
		K = 4 // distinct analyses
		R = 4 // rounds over the key set
	)
	bodies := analyzeBodies(t, K)

	// Affinity routing: through the proxy.
	affBackends := newServiceBackends(t, 3, -1, nil)
	urls := make([]string, len(affBackends))
	for i, b := range affBackends {
		urls[i] = b.ts.URL
	}
	inj, _ := faults.New(1)
	p, err := New(Config{
		Backends:      urls,
		ProbeInterval: -1,
		FaultInjector: inj,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer p.Close()
	proxyTS := httptest.NewServer(p.Handler())
	defer proxyTS.Close()
	for r := 0; r < R; r++ {
		for _, body := range bodies {
			postOK(t, proxyTS.URL+"/v1/analyze", body)
		}
	}
	affHits, affMisses := runnerCacheTotals(t, affBackends)

	// The control: identical traffic round-robined directly across a fresh
	// trio, the routing a affinity-blind load balancer would do.
	rrBackends := newServiceBackends(t, 3, -1, nil)
	i := 0
	for r := 0; r < R; r++ {
		for _, body := range bodies {
			postOK(t, rrBackends[i%len(rrBackends)].ts.URL+"/v1/analyze", body)
			i++
		}
	}
	rrHits, rrMisses := runnerCacheTotals(t, rrBackends)

	// Affinity: every key simulates exactly once in the whole fleet.
	if affMisses != K {
		t.Errorf("affinity routing: %v fleet-wide cache misses, want exactly %d (one per key)", affMisses, K)
	}
	if affHits != K*(R-1) {
		t.Errorf("affinity routing: %v cache hits, want %d", affHits, K*(R-1))
	}
	// Round-robin re-simulates each key on every backend it visits.
	if rrMisses <= affMisses {
		t.Errorf("round-robin misses (%v) not worse than affinity misses (%v)", rrMisses, affMisses)
	}
	if affHits <= rrHits {
		t.Errorf("affinity hits (%v) not better than round-robin hits (%v)", affHits, rrHits)
	}
	t.Logf("affinity: %v hits / %v misses; round-robin: %v hits / %v misses",
		affHits, affMisses, rrHits, rrMisses)
}
