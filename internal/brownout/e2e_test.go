// The brownout acceptance test: under sustained 4x-capacity overload, a
// laddered server (stale serving + analytic fallback) delivers strictly
// more goodput than an identically-sized binary-shedding server, and every
// answer it produces is honest — a response either carries a real kernel
// run or says Approximate, never neither, never silently both.
package brownout_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"littleslaw/internal/brownout"
	"littleslaw/internal/experiments"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
)

func paperProfiles(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
	return experiments.PaperProfileFor(p)
}

// overloadConfig is a deliberately small server: ceiling 4, short queue,
// instant profiles. The laddered variant gets fast dwells so the ladder
// engages within the test window, plus a short runner TTL so B1 has
// expired entries to serve.
func overloadConfig(laddered bool) service.Config {
	cfg := service.Config{
		ProfileFor:        paperProfiles,
		LimitCeiling:      4,
		LimitQueue:        8,
		LimitQueueTimeout: 50 * time.Millisecond,
		RunnerTTL:         50 * time.Millisecond,
	}
	if laddered {
		cfg.Brownout = brownout.Config{
			DwellUp:   50 * time.Millisecond,
			DwellDown: 500 * time.Millisecond,
		}
	} else {
		cfg.DisableBrownout = true
	}
	return cfg
}

// outcome tallies one server's side of the comparison.
type outcome struct {
	ok, degraded, shedFinal, unmarked, badBody atomic.Int64
}

// drive runs a closed-loop population against one server for the window,
// retrying sheds (429/503) — degraded successes count as successes, which
// is the whole point of the ladder. Distinct scales defeat the runner
// cache so offered work stays expensive.
func drive(t *testing.T, ts *httptest.Server, workers int, window time.Duration, out *outcome) {
	t.Helper()
	httpc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(window)
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				// ~60 distinct cache keys: enough that the binary server
				// almost never gets a free cache hit inside the window.
				n := seq.Add(1) % 60
				body := fmt.Sprintf(`{"platform":"SKL","workload":"ISx","scale":%.4f}`, 0.02+float64(n)*0.0002)
				shed := false
				for attempt := 0; attempt < 8; attempt++ {
					resp, err := httpc.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader([]byte(body)))
					if err != nil {
						shed = true
						break
					}
					var ar service.AnalyzeResponse
					decodeErr := json.NewDecoder(resp.Body).Decode(&ar)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						if decodeErr != nil {
							out.badBody.Add(1)
						} else {
							// Honesty invariant: a 200 either carries the
							// kernel's run or is marked Approximate —
							// exactly one of the two.
							if (ar.Run == nil) != ar.Approximate {
								out.unmarked.Add(1)
							}
							if ar.Degraded != (resp.Header.Get("X-Degraded") == "true") {
								out.unmarked.Add(1)
							}
							out.ok.Add(1)
							if ar.Degraded {
								out.degraded.Add(1)
							}
						}
						shed = false
						break
					}
					shed = true
					if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if shed {
					out.shedFinal.Add(1)
				}
			}
		}()
	}
	wg.Wait()
}

// TestChaosLadderedBeatsBinaryShedding is the overload acceptance run: the
// same 4x-capacity closed-loop population against a laddered and a binary
// server, same window, same work mix. The ladder must engage (degraded
// successes observed), every answer must be marked honestly, and laddered
// goodput must strictly exceed binary goodput.
func TestChaosLadderedBeatsBinaryShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("overload e2e needs its full window")
	}
	window := 2500 * time.Millisecond
	const workers = 16 // 4x the admission ceiling

	run := func(laddered bool) *outcome {
		s := service.New(overloadConfig(laddered))
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		out := &outcome{}
		drive(t, ts, workers, window, out)
		return out
	}

	binary := run(false)
	laddered := run(true)

	t.Logf("binary:   ok %d  degraded %d  shed %d", binary.ok.Load(), binary.degraded.Load(), binary.shedFinal.Load())
	t.Logf("laddered: ok %d  degraded %d  shed %d", laddered.ok.Load(), laddered.degraded.Load(), laddered.shedFinal.Load())

	if n := binary.unmarked.Load() + laddered.unmarked.Load(); n != 0 {
		t.Fatalf("%d responses broke the honesty invariant (Run xor Approximate, header matches body)", n)
	}
	if n := binary.badBody.Load() + laddered.badBody.Load(); n != 0 {
		t.Fatalf("%d 200 responses had undecodable bodies", n)
	}
	if binary.degraded.Load() != 0 {
		t.Fatalf("binary server produced %d degraded answers with brownout disabled", binary.degraded.Load())
	}
	if laddered.degraded.Load() == 0 {
		t.Fatal("ladder never engaged: no degraded successes under 4x overload")
	}
	if laddered.ok.Load() <= binary.ok.Load() {
		t.Fatalf("laddered goodput %d <= binary goodput %d; the ladder bought nothing",
			laddered.ok.Load(), binary.ok.Load())
	}
}

// TestChaosLadderRecoversToFull proves the other half of graceful
// degradation: once the overload stops, the controller walks back to B0
// and answers regain full fidelity.
func TestChaosLadderRecoversToFull(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery e2e needs its dwell windows")
	}
	cfg := overloadConfig(true)
	cfg.Brownout.DwellDown = 100 * time.Millisecond // fast descent for the test
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := &outcome{}
	drive(t, ts, 16, 1500*time.Millisecond, out)
	if out.degraded.Load() == 0 {
		t.Fatal("ladder never engaged during the overload phase")
	}

	// Overload gone: the ladder must descend to B0 within a few dwell
	// windows (each /v1/brownout read samples pressure).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/brownout")
		if err != nil {
			t.Fatal(err)
		}
		var st service.BrownoutState
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode == "B0" {
			break
		}
		if time.Now().After(deadline) {
			// Everything the ladder's decision read, on one line: a rung
			// held up by nothing shows here as pressure without in-flight,
			// queue or n_avg to account for it.
			var hz service.HealthzResponse
			if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
				json.NewDecoder(resp.Body).Decode(&hz)
				resp.Body.Close()
			}
			navg := -1.0
			if hz.LimiterNAvg != nil {
				navg = *hz.LimiterNAvg
			}
			t.Fatalf("still %s after overload ended: pressure %.2f, in-flight %d, queue depth %d, n_avg %.2f (ceiling %g)",
				st.Mode, st.Pressure, hz.LimiterInflight, hz.QueueDepth, navg, cfg.LimitCeiling)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// And a fresh analysis is full-fidelity again.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		bytes.NewReader([]byte(`{"platform":"SKL","workload":"ISx","scale":0.0333}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar service.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ar.Degraded || ar.Run == nil {
		t.Fatalf("post-recovery analyze = %d degraded=%v run=%v, want full fidelity", resp.StatusCode, ar.Degraded, ar.Run != nil)
	}
}
