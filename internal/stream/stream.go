// Package stream turns the one-shot Little's-Law analysis into a
// continuous monitor: a Source emits timestamped bandwidth samples (from a
// replayed simulation, an NDJSON counter dump, or stdin), a sliding Window
// computes per-window n_avg against the platform's loaded-latency curve,
// and a CUSUM PhaseDetector segments the stream into phases, attaching the
// Figure-1 recipe verdict to each.
//
// The subsystem exists because of §III-D: "averaging counter data from
// multiple routines that often behave very differently usually provides
// misleading guidance". A whole-stream average produces one recommendation;
// the per-phase reports produce the right one for each phase. The Monitor
// computes both and flags the disagreement — the §III-D trap, made
// measurable — in its final summary event.
//
// Events fan out to any number of subscribers through a Broker with
// per-subscriber drop-oldest backpressure, which is what /v1/watch on
// llserved serves as NDJSON and SSE.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"

	"littleslaw/internal/core"
	"littleslaw/internal/faults"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
)

// FaultSite is the monitor pipeline's fault-injection point, evaluated
// once per consumed sample. It honors latency (a stalled counter source)
// and error (a dying source — the path that exercises terminal error
// events downstream).
const FaultSite = "stream.monitor"

// Sample is one timestamped bandwidth observation from a counter source.
type Sample struct {
	// TS is the sample time in seconds since the stream started.
	TS float64 `json:"t_s"`
	// BandwidthGBs is the observed memory bandwidth (reads + writebacks).
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// PrefetchedReadFraction is the share of reads initiated by the
	// prefetcher when the counters expose it; < 0 means unknown.
	PrefetchedReadFraction float64 `json:"prefetched_read_fraction,omitempty"`
}

// Event is one monitor output: exactly one of Window, Phase, Summary or
// Error is set, discriminated by Kind ("window", "phase", "summary",
// "error"). Seq is the position in the stream, assigned by the Broker.
type Event struct {
	Kind    string        `json:"kind"`
	Seq     int           `json:"seq"`
	Window  *WindowEvent  `json:"window,omitempty"`
	Phase   *PhaseEvent   `json:"phase,omitempty"`
	Summary *SummaryEvent `json:"summary,omitempty"`
	Error   *ErrorEvent   `json:"error,omitempty"`
}

// ErrorEvent is the terminal event a stream publishes when its monitor
// dies mid-stream (a fault, a failed replay, an expired context): the
// graceful-degradation contract that a subscriber always learns why a
// stream ended instead of watching a silently truncated sequence.
type ErrorEvent struct {
	Message string `json:"message"`
}

// WindowEvent is the Little's-Law report for one sliding window.
type WindowEvent struct {
	Index  int     `json:"index"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// Phase is the index of the phase this window currently belongs to.
	Phase           int     `json:"phase"`
	BandwidthGBs    float64 `json:"bandwidth_gbs"`
	LatencyNs       float64 `json:"latency_ns"`
	Occupancy       float64 `json:"n_avg"`
	Limiter         string  `json:"limiter"`
	LimiterCapacity int     `json:"limiter_capacity"`
	Saturated       bool    `json:"saturated"`
}

// Advice is one recipe verdict attached to a phase.
type Advice struct {
	Optimization string `json:"optimization"`
	Stance       string `json:"stance"`
	Reason       string `json:"reason"`
}

// PhaseEvent summarizes one detected phase when it closes (at a detected
// mean shift, or at end of stream).
type PhaseEvent struct {
	Index   int     `json:"index"`
	StartS  float64 `json:"start_s"`
	EndS    float64 `json:"end_s"`
	Windows int     `json:"windows"`
	// BandwidthGBs is the mean bandwidth over the phase's windows.
	BandwidthGBs    float64  `json:"bandwidth_gbs"`
	LatencyNs       float64  `json:"latency_ns"`
	Occupancy       float64  `json:"n_avg"`
	Limiter         string   `json:"limiter"`
	LimiterCapacity int      `json:"limiter_capacity"`
	Action          string   `json:"action"`
	Advice          []Advice `json:"advice,omitempty"`
}

// SummaryEvent closes the stream: the whole-stream average pushed through
// the same metric, next to the per-phase verdicts it would overrule.
type SummaryEvent struct {
	Samples int `json:"samples"`
	Windows int `json:"windows"`
	Phases  int `json:"phases"`
	// BandwidthGBs is the whole-stream mean bandwidth — the number a
	// whole-program profile would report.
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	Occupancy    float64 `json:"n_avg"`
	// Action is the single recommendation the aggregate yields.
	Action string `json:"action"`
	// PhaseActions lists each phase's recommendation, in phase order.
	PhaseActions []string `json:"phase_actions"`
	// MisleadingAggregate is the §III-D flag: true when at least one
	// phase's recommendation differs from the aggregate's, so following
	// the whole-stream number would misguide that phase.
	MisleadingAggregate bool `json:"misleading_aggregate"`
	// Detail narrates the disagreement (empty when the aggregate agrees
	// with every phase).
	Detail string `json:"detail,omitempty"`
}

// Config parameterizes a Monitor. Platform and Profile are required.
type Config struct {
	Platform *platform.Platform
	// Profile is the platform's bandwidth→latency curve.
	Profile *queueing.Curve
	// WindowSamples is the sliding-window width in samples (default 8).
	WindowSamples int
	// StrideSamples is the emission stride in samples (default half the
	// window, minimum 1).
	StrideSamples int
	// ActiveCores the samples were measured on (0 = the full node).
	ActiveCores int
	// ThreadsPerCore in the measured run (0 = 1).
	ThreadsPerCore int
	// RandomAccess classifies the stream when a sample carries no
	// prefetched-read fraction.
	RandomAccess bool
	// Detector tunes the phase detector.
	Detector DetectorConfig
}

func (c *Config) normalize() error {
	if c.Platform == nil {
		return errors.New("stream: nil platform")
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if c.Profile == nil {
		return errors.New("stream: nil bandwidth-latency profile")
	}
	if c.WindowSamples == 0 {
		c.WindowSamples = 8
	}
	if c.WindowSamples < 1 {
		return fmt.Errorf("stream: window of %d samples", c.WindowSamples)
	}
	if c.StrideSamples == 0 {
		c.StrideSamples = max(1, c.WindowSamples/2)
	}
	if c.StrideSamples < 1 {
		return fmt.Errorf("stream: stride of %d samples", c.StrideSamples)
	}
	if c.ThreadsPerCore == 0 {
		c.ThreadsPerCore = 1
	}
	c.Detector.normalize()
	return nil
}

// Validate checks the config the same way Monitor will, without running
// anything. Callers that stream over HTTP use it to reject a bad request
// before committing to a 200.
func (c Config) Validate() error { return c.normalize() }

// Monitor drives samples from a Source through the window and phase
// pipeline, handing each Event to emit in order. It returns the final
// summary (also emitted) when the source drains.
//
// emit errors abort the run: a monitor serving a single subscriber stops
// when that subscriber goes away. Fan-out callers publish into a Broker,
// which never errors.
func Monitor(ctx context.Context, src Source, cfg Config, emit func(Event) error) (*SummaryEvent, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("stream: nil source")
	}

	win := NewWindow(cfg.WindowSamples, cfg.StrideSamples)
	det := NewDetector(cfg.Detector)

	type phaseAcc struct {
		startS, endS float64
		windows      int
		bwSum        float64
		pfSum        float64
		pfN          int
	}
	var (
		cur       phaseAcc
		phases    []*PhaseEvent
		samples   int
		bwSum     float64
		pfSum     float64
		pfN       int
		windows   int
		havePhase bool
	)

	analyze := func(bw, pf float64) (*core.Report, error) {
		m := core.Measurement{
			Routine:                "stream",
			BandwidthGBs:           bw,
			ActiveCores:            cfg.ActiveCores,
			ThreadsPerCore:         cfg.ThreadsPerCore,
			PrefetchedReadFraction: pf,
			RandomAccess:           cfg.RandomAccess,
		}
		return core.Analyze(cfg.Platform, cfg.Profile, m)
	}

	closePhase := func() (*PhaseEvent, error) {
		if !havePhase || cur.windows == 0 {
			return nil, nil
		}
		pf := -1.0
		if cur.pfN > 0 {
			pf = cur.pfSum / float64(cur.pfN)
		}
		bw := cur.bwSum / float64(cur.windows)
		rep, err := analyze(bw, pf)
		if err != nil {
			return nil, err
		}
		pe := &PhaseEvent{
			Index:           len(phases),
			StartS:          cur.startS,
			EndS:            cur.endS,
			Windows:         cur.windows,
			BandwidthGBs:    bw,
			LatencyNs:       rep.LatencyNs,
			Occupancy:       rep.Occupancy,
			Limiter:         rep.Limiter.String(),
			LimiterCapacity: rep.LimiterCapacity,
			Action:          core.Classify(rep).String(),
		}
		caps := core.Capabilities{
			SMTWays:         cfg.Platform.SMTWays,
			CurrentThreads:  cfg.ThreadsPerCore,
			IrregularAccess: rep.Limiter == core.L1Bound,
		}
		for _, a := range core.Advise(rep, caps) {
			pe.Advice = append(pe.Advice, Advice{
				Optimization: a.Opt.String(),
				Stance:       a.Stance.String(),
				Reason:       a.Reason,
			})
		}
		phases = append(phases, pe)
		havePhase = false
		return pe, nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch f := faults.Eval(ctx, FaultSite); f.Kind {
		case faults.KindLatency:
			f.Sleep(ctx)
		case faults.KindError:
			return nil, f.Err()
		}
		s, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		samples++
		bwSum += s.BandwidthGBs
		if s.PrefetchedReadFraction >= 0 {
			pfSum += s.PrefetchedReadFraction
			pfN++
		}

		stat, ok := win.Push(s)
		if !ok {
			continue
		}
		pf := -1.0
		if stat.PrefetchN > 0 {
			pf = stat.PrefetchSum / float64(stat.PrefetchN)
		}
		rep, err := analyze(stat.MeanBandwidthGBs, pf)
		if err != nil {
			return nil, err
		}

		if det.Push(rep.Occupancy) {
			// Mean shift: the phase ended where this window begins.
			cur.endS = stat.StartS
			pe, err := closePhase()
			if err != nil {
				return nil, err
			}
			if pe != nil {
				if err := emit(Event{Kind: "phase", Phase: pe}); err != nil {
					return nil, err
				}
			}
		}
		if !havePhase {
			cur = phaseAcc{startS: stat.StartS}
			havePhase = true
		}
		cur.endS = stat.EndS
		cur.windows++
		cur.bwSum += stat.MeanBandwidthGBs
		if pf >= 0 {
			cur.pfSum += pf
			cur.pfN++
		}

		windows++
		we := &WindowEvent{
			Index:           stat.Index,
			StartS:          stat.StartS,
			EndS:            stat.EndS,
			Phase:           len(phases),
			BandwidthGBs:    stat.MeanBandwidthGBs,
			LatencyNs:       rep.LatencyNs,
			Occupancy:       rep.Occupancy,
			Limiter:         rep.Limiter.String(),
			LimiterCapacity: rep.LimiterCapacity,
			Saturated:       rep.OccupancySaturated(),
		}
		if err := emit(Event{Kind: "window", Window: we}); err != nil {
			return nil, err
		}
	}

	pe, err := closePhase()
	if err != nil {
		return nil, err
	}
	if pe != nil {
		if err := emit(Event{Kind: "phase", Phase: pe}); err != nil {
			return nil, err
		}
	}

	sum := &SummaryEvent{Samples: samples, Windows: windows, Phases: len(phases)}
	if samples > 0 {
		pf := -1.0
		if pfN > 0 {
			pf = pfSum / float64(pfN)
		}
		sum.BandwidthGBs = bwSum / float64(samples)
		rep, err := analyze(sum.BandwidthGBs, pf)
		if err != nil {
			return nil, err
		}
		sum.Occupancy = rep.Occupancy
		sum.Action = core.Classify(rep).String()
		for _, p := range phases {
			sum.PhaseActions = append(sum.PhaseActions, p.Action)
			if p.Action != sum.Action {
				sum.MisleadingAggregate = true
				sum.Detail += fmt.Sprintf("phase %d (%.0f–%.0fs) needs %s, the aggregate says %s; ",
					p.Index, p.StartS, p.EndS, p.Action, sum.Action)
			}
		}
		if sum.MisleadingAggregate {
			sum.Detail += "averaging phases that behave differently provides misleading guidance (§III-D)"
		}
	}
	if err := emit(Event{Kind: "summary", Summary: sum}); err != nil {
		return nil, err
	}
	return sum, nil
}
