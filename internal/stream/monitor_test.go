// Monitor tests live in an external test package so they can use the
// §III-D two-phase fixture (streamtest imports stream, so an internal test
// file could not import it).
package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"littleslaw/internal/core"
	"littleslaw/internal/platform"
	"littleslaw/internal/stream"
	"littleslaw/internal/stream/streamtest"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden event fixture from this run")

// runTwoPhase replays the canonical fixture through the monitor and
// collects every emitted event.
func runTwoPhase(t *testing.T) ([]stream.Event, *stream.SummaryEvent) {
	t.Helper()
	p := platform.SKL()
	src, results, err := stream.Replay(context.Background(),
		streamtest.TwoPhaseReplay(p, 24), stream.ReplayOptions{PeriodS: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Result.TotalGBs <= results[1].Result.TotalGBs {
		t.Fatalf("fixture lost its contrast: %+v", results)
	}
	var events []stream.Event
	seq := 0
	sum, err := stream.Monitor(context.Background(), src, stream.Config{
		Platform:      p,
		Profile:       streamtest.Curve(),
		WindowSamples: 8,
		StrideSamples: 8,
		ActiveCores:   8,
		RandomAccess:  true,
	}, func(ev stream.Event) error {
		ev.Seq = seq // the broker normally assigns these
		seq++
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return events, sum
}

// TestMonitorTwoPhaseDetection is the heart of the subsystem: the §III-D
// two-phase app yields two detected phases whose recommendations differ,
// while the whole-stream average yields a single recommendation that
// matches neither — the trap, flagged.
func TestMonitorTwoPhaseDetection(t *testing.T) {
	events, sum := runTwoPhase(t)

	var phases []*stream.PhaseEvent
	var windows int
	for _, ev := range events {
		switch ev.Kind {
		case "phase":
			phases = append(phases, ev.Phase)
		case "window":
			windows++
		}
	}
	if len(phases) < 2 {
		t.Fatalf("detected %d phases, want >= 2", len(phases))
	}
	if sum.Phases != len(phases) || sum.Windows != windows || sum.Samples != 48 {
		t.Fatalf("summary bookkeeping %+v vs %d phases %d windows", sum, len(phases), windows)
	}

	// Per-phase advice differs: the hot phase and the light phase must not
	// share a headline action.
	first, last := phases[0], phases[len(phases)-1]
	if first.Action == last.Action {
		t.Fatalf("phases share action %q: %+v vs %+v", first.Action, first, last)
	}
	if len(first.Advice) == 0 || len(last.Advice) == 0 {
		t.Fatal("phase advice missing")
	}
	if first.BandwidthGBs <= last.BandwidthGBs {
		t.Fatalf("hot phase %f GB/s not above light phase %f GB/s", first.BandwidthGBs, last.BandwidthGBs)
	}

	// The aggregate is misleading: its single action differs from at least
	// one phase, and the §III-D case here is stronger — it matches none.
	if !sum.MisleadingAggregate {
		t.Fatalf("aggregate not flagged as misleading: %+v", sum)
	}
	for _, a := range sum.PhaseActions {
		if a == sum.Action {
			t.Fatalf("aggregate action %q matches a phase: %v", sum.Action, sum.PhaseActions)
		}
	}
	if sum.Detail == "" {
		t.Fatal("misleading aggregate carries no narration")
	}

	// Window events carry phase attribution consistent with the detected
	// boundaries.
	for _, ev := range events {
		if ev.Kind == "window" && (ev.Window.Phase < 0 || ev.Window.Phase >= len(phases)+1) {
			t.Fatalf("window %d attributed to phase %d of %d", ev.Window.Index, ev.Window.Phase, len(phases))
		}
	}
}

// TestMonitorGoldenEvents locks the full deterministic event stream of the
// two-phase replay byte-for-byte. Regenerate with:
//
//	go test ./internal/stream -run TestMonitorGoldenEvents -args -update
func TestMonitorGoldenEvents(t *testing.T) {
	events, _ := runTwoPhase(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "two_phase_events.ndjson")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", path, len(events))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -args -update): %v", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("event stream diverged from %s\n-- got --\n%s\n-- want --\n%s", path, buf.Bytes(), want)
	}
}

// TestMonitorSinglePhaseNotMisleading: a stationary stream must produce one
// phase and no misleading flag — the detector does not invent phases.
func TestMonitorSinglePhaseNotMisleading(t *testing.T) {
	p := platform.SKL()
	var samples []stream.Sample
	for i := 0; i < 40; i++ {
		samples = append(samples, stream.Sample{TS: float64(i), BandwidthGBs: 80, PrefetchedReadFraction: 0.9})
	}
	var phases int
	sum, err := stream.Monitor(context.Background(), stream.NewSliceSource(samples), stream.Config{
		Platform: p,
		Profile:  streamtest.Curve(),
	}, func(ev stream.Event) error {
		if ev.Kind == "phase" {
			phases++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if phases != 1 || sum.Phases != 1 {
		t.Fatalf("stationary stream produced %d phases", phases)
	}
	if sum.MisleadingAggregate {
		t.Fatalf("single-phase aggregate flagged misleading: %+v", sum)
	}
	if sum.Action != sum.PhaseActions[0] {
		t.Fatalf("aggregate action %q differs from the only phase %q", sum.Action, sum.PhaseActions[0])
	}
}

// TestMonitorConfigValidation rejects broken configurations.
func TestMonitorConfigValidation(t *testing.T) {
	src := stream.NewSliceSource(nil)
	ctx := context.Background()
	if _, err := stream.Monitor(ctx, src, stream.Config{}, nil); err == nil {
		t.Fatal("nil platform accepted")
	}
	p := platform.SKL()
	if _, err := stream.Monitor(ctx, src, stream.Config{Platform: p}, nil); err == nil {
		t.Fatal("nil profile accepted")
	}
	cfg := stream.Config{Platform: p, Profile: streamtest.Curve(), WindowSamples: -1}
	if _, err := stream.Monitor(ctx, src, cfg, nil); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := stream.Monitor(ctx, nil, stream.Config{Platform: p, Profile: streamtest.Curve()},
		func(stream.Event) error { return nil }); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestReplayDeterministicAcrossWorkers: the replay adapter produces the
// identical sample series at any worker count (the engine contract).
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	p := platform.SKL()
	var first []stream.Sample
	for _, workers := range []int{1, 4} {
		src, _, err := stream.Replay(context.Background(),
			streamtest.TwoPhaseReplay(p, 4), stream.ReplayOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got []stream.Sample
		for {
			s, err := src.Next(context.Background())
			if err != nil {
				break
			}
			got = append(got, s)
		}
		if first == nil {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("workers=%d: %d samples vs %d", workers, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("workers=%d sample %d: %+v vs %+v", workers, i, got[i], first[i])
			}
		}
	}
}

// TestPerPhaseAgainstWholeProgram is the §III-D comparison at one sample
// per window: each detected phase is exactly core.Analyze on its own
// replayed run, and the summary is exactly core.Analyze on the
// sample-weighted mean of all samples — the whole-program profile. Over
// the fixture's two phases at three time splits, the aggregate's action
// always betrays the hot phase, and at the balanced and hot-dominated
// splits it matches no phase at all.
func TestPerPhaseAgainstWholeProgram(t *testing.T) {
	p := platform.SKL()
	cases := []struct {
		name               string
		hot, light         int
		divergesEveryPhase bool
	}{
		{"equal-time", 5, 5, true},
		{"hot-dominated", 8, 2, true},
		{"light-dominated", 2, 8, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			phases := streamtest.TwoPhaseReplay(p, 0)
			phases[0].Samples, phases[1].Samples = tc.hot, tc.light
			src, results, err := stream.Replay(context.Background(), phases, stream.ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := stream.Config{
				Platform: p, Profile: streamtest.Curve(),
				WindowSamples: 1, StrideSamples: 1, ActiveCores: 8, RandomAccess: true,
			}
			var got []*stream.PhaseEvent
			sum, err := stream.Monitor(context.Background(), src, cfg, func(ev stream.Event) error {
				if ev.Kind == "phase" {
					got = append(got, ev.Phase)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(phases) {
				t.Fatalf("detected %d phases, want %d", len(got), len(phases))
			}

			// The monitor averages samples in stream order; summing the
			// same values in the same order makes the comparison exact.
			analyze := func(runs []stream.ReplayResult, counts []int) *core.Report {
				var bw, pf float64
				n := 0
				for i, r := range runs {
					for k := 0; k < counts[i]; k++ {
						bw += r.Result.TotalGBs
						pf += r.Result.PrefetchedReadFraction
						n++
					}
				}
				rep, err := core.Analyze(p, cfg.Profile, core.Measurement{
					Routine:                "stream",
					BandwidthGBs:           bw / float64(n),
					ActiveCores:            cfg.ActiveCores,
					ThreadsPerCore:         1,
					PrefetchedReadFraction: pf / float64(n),
					RandomAccess:           cfg.RandomAccess,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			var reps []*core.Report
			for i, pe := range got {
				rep := analyze(results[i:i+1], []int{phases[i].Samples})
				if pe.Windows != phases[i].Samples || pe.BandwidthGBs != rep.BandwidthGBs ||
					pe.LatencyNs != rep.LatencyNs || pe.Occupancy != rep.Occupancy ||
					pe.Limiter != rep.Limiter.String() || pe.LimiterCapacity != rep.LimiterCapacity ||
					pe.Action != core.Classify(rep).String() {
					t.Errorf("phase %d (%s) = %+v, core.Analyze on its run = %+v", i, results[i].Label, pe, rep)
				}
				reps = append(reps, rep)
			}
			whole := analyze(results, []int{tc.hot, tc.light})
			if sum.Samples != tc.hot+tc.light || sum.BandwidthGBs != whole.BandwidthGBs ||
				sum.Occupancy != whole.Occupancy || sum.Action != core.Classify(whole).String() {
				t.Errorf("summary = %+v, core.Analyze on the sample-weighted mean = %+v", sum, whole)
			}

			// The fixture's contract: a saturated L1 MSHR queue with idle
			// L2 MSHRs next to an almost idle phase.
			hot, light := core.Classify(reps[0]), core.Classify(reps[1])
			if hot != core.ShiftToL2 || light != core.ComputeBound {
				t.Fatalf("fixture drifted: hot=%s light=%s", hot, light)
			}
			// The aggregate always hides the hot phase's saturation.
			action := core.Classify(whole)
			if action == hot {
				t.Fatalf("whole-program action %s matches the hot phase", action)
			}
			if tc.divergesEveryPhase && action == light {
				t.Fatalf("whole-program action %s matches the light phase", action)
			}
			if !sum.MisleadingAggregate {
				t.Fatalf("aggregate not flagged as misleading: %+v", sum)
			}
			if o := whole.Occupancy; o <= reps[1].Occupancy || o >= reps[0].Occupancy {
				t.Fatalf("whole-program occupancy %.2f not strictly between the phases", o)
			}
		})
	}
}

// TestPerPhaseDiffersFromWholeProgram reproduces the §III-D warning: a
// memory-hot phase plus a compute-light phase, at a 40/60 time split,
// average into a profile that looks moderate and hides the hot phase's
// saturated MSHR file.
func TestPerPhaseDiffersFromWholeProgram(t *testing.T) {
	p := platform.SKL()
	phases := streamtest.TwoPhaseReplay(p, 0)
	phases[0].Samples, phases[1].Samples = 4, 6
	src, _, err := stream.Replay(context.Background(), phases, stream.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Config{
		Platform: p, Profile: streamtest.Curve(),
		WindowSamples: 1, StrideSamples: 1, ActiveCores: 8, RandomAccess: true,
	}
	var got []*stream.PhaseEvent
	hotSaturated := false
	sum, err := stream.Monitor(context.Background(), src, cfg, func(ev stream.Event) error {
		switch ev.Kind {
		case "phase":
			got = append(got, ev.Phase)
		case "window":
			hotSaturated = hotSaturated || (ev.Window.Phase == 0 && ev.Window.Saturated)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("phases = %d", len(got))
	}
	hot, light := got[0], got[1]
	if hot.Occupancy <= 2*light.Occupancy {
		t.Fatalf("phases not contrasting enough: hot %.2f vs light %.2f", hot.Occupancy, light.Occupancy)
	}
	// The whole-program view sits between the two and, crucially, reports
	// the hot phase's saturation away.
	if !(sum.Occupancy < hot.Occupancy && sum.Occupancy > light.Occupancy) {
		t.Fatalf("whole-program occupancy %.2f not between %.2f and %.2f",
			sum.Occupancy, light.Occupancy, hot.Occupancy)
	}
	whole, err := core.Analyze(p, cfg.Profile, core.Measurement{
		Routine:        "stream",
		BandwidthGBs:   sum.BandwidthGBs,
		ActiveCores:    cfg.ActiveCores,
		ThreadsPerCore: 1,
		RandomAccess:   cfg.RandomAccess,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hotSaturated {
		t.Fatal("fixture drifted: the hot phase never saturates its limiter")
	}
	if whole.OccupancySaturated() {
		t.Fatal("whole-program view should hide the hot phase's saturation")
	}
	// Every sample lands in exactly one phase.
	if n := hot.Windows + light.Windows; n != sum.Samples || n != 10 {
		t.Fatalf("phase windows sum to %d, summary has %d samples", n, sum.Samples)
	}
}

// TestReplayNoPhases: a replay with nothing to run is an error, not an
// empty stream.
func TestReplayNoPhases(t *testing.T) {
	if _, _, err := stream.Replay(context.Background(), nil, stream.ReplayOptions{}); err == nil {
		t.Fatal("replay of no phases accepted")
	}
}
