// The /v1/watch endpoints: the stream monitor served over HTTP. A POST
// creates a monitored stream (from inline counter samples or a replayed
// simulation) and streams its events back as NDJSON — or SSE when the
// client asks with Accept: text/event-stream. Naming the stream registers
// its broker so any number of GET /v1/watch/{stream} subscribers can
// follow along (or join late: the broker replays history, so every
// subscriber sees the same sequence, modulo drop-oldest under a slow
// client).
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"

	"littleslaw/internal/faults"
	"littleslaw/internal/platform"
	"littleslaw/internal/stream"
	"littleslaw/internal/workloads"
)

// WatchSampleJSON is one inline counter sample.
type WatchSampleJSON struct {
	TS           float64 `json:"t_s"`
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// PrefetchedReadFraction, when the counters expose it; nil = unknown.
	PrefetchedReadFraction *float64 `json:"prefetched_read_fraction,omitempty"`
}

// WatchPhaseJSON is one replayed simulation phase: the named workload runs
// through the engine pool and its measured bandwidth becomes Samples
// consecutive samples.
type WatchPhaseJSON struct {
	Workload       string       `json:"workload"`
	Variant        *VariantSpec `json:"variant,omitempty"`
	ThreadsPerCore int          `json:"threads_per_core,omitempty"`
	Scale          float64      `json:"scale,omitempty"`
	// Samples emitted for this phase (default 16).
	Samples int `json:"samples,omitempty"`
}

// DetectorSpec tunes the CUSUM phase detector over the wire.
type DetectorSpec struct {
	Slack      float64 `json:"slack,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	MinWindows int     `json:"min_windows,omitempty"`
}

// WatchRequest is the input to POST /v1/watch. Exactly one of Samples
// (inline counters) or Phases (replayed simulation) must be supplied.
type WatchRequest struct {
	Platform string            `json:"platform"`
	Samples  []WatchSampleJSON `json:"samples,omitempty"`
	Phases   []WatchPhaseJSON  `json:"phases,omitempty"`
	// PeriodS spaces replayed samples in stream time (default 1s).
	PeriodS float64 `json:"period_s,omitempty"`
	// WindowSamples / StrideSamples configure the sliding window
	// (defaults 8 and window/2).
	WindowSamples int `json:"window_samples,omitempty"`
	StrideSamples int `json:"stride_samples,omitempty"`
	// ActiveCores / ThreadsPerCore / RandomAccess classify inline samples
	// the same way MeasurementSpec does; replays derive them from the run.
	ActiveCores    int           `json:"active_cores,omitempty"`
	ThreadsPerCore int           `json:"threads_per_core,omitempty"`
	RandomAccess   bool          `json:"random_access,omitempty"`
	Detector       *DetectorSpec `json:"detector,omitempty"`
	// Stream optionally names the stream so GET /v1/watch/{stream} can
	// subscribe to it.
	Stream string `json:"stream,omitempty"`
	// History bounds the broker's replay buffer (default 8192 events).
	History int `json:"history,omitempty"`
}

const (
	maxWatchPhases       = 16
	maxWatchPhaseSamples = 512
	maxWatchHistory      = 1 << 16
	maxNamedStreams      = 64
)

var streamNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

func (r *WatchRequest) validate() error {
	if r.Platform == "" {
		return fmt.Errorf("platform is required")
	}
	if (len(r.Samples) == 0) == (len(r.Phases) == 0) {
		return fmt.Errorf("exactly one of samples or phases is required")
	}
	prev := float64(-1)
	for i, s := range r.Samples {
		if !isFinite(s.BandwidthGBs) || s.BandwidthGBs < 0 {
			return fmt.Errorf("samples[%d].bandwidth_gbs must be finite and non-negative", i)
		}
		if !isFinite(s.TS) || s.TS < prev {
			return fmt.Errorf("samples[%d].t_s must be finite and non-decreasing", i)
		}
		prev = s.TS
		if f := s.PrefetchedReadFraction; f != nil && (!isFinite(*f) || *f < 0 || *f > 1) {
			return fmt.Errorf("samples[%d].prefetched_read_fraction must be in [0, 1]", i)
		}
	}
	if len(r.Phases) > maxWatchPhases {
		return fmt.Errorf("at most %d phases", maxWatchPhases)
	}
	for i, ph := range r.Phases {
		if ph.Workload == "" {
			return fmt.Errorf("phases[%d].workload is required", i)
		}
		if ph.ThreadsPerCore < 0 || ph.ThreadsPerCore > 8 {
			return fmt.Errorf("phases[%d].threads_per_core must be in [1, 8]", i)
		}
		if ph.Samples < 0 || ph.Samples > maxWatchPhaseSamples {
			return fmt.Errorf("phases[%d].samples must be in [1, %d]", i, maxWatchPhaseSamples)
		}
		if err := validateScale(ph.Scale); err != nil {
			return fmt.Errorf("phases[%d]: %w", i, err)
		}
	}
	if r.PeriodS != 0 && (!isFinite(r.PeriodS) || r.PeriodS <= 0) {
		return fmt.Errorf("period_s must be positive")
	}
	if r.WindowSamples < 0 || r.StrideSamples < 0 {
		return fmt.Errorf("window_samples and stride_samples must be positive")
	}
	if r.ActiveCores < 0 || r.ThreadsPerCore < 0 {
		return fmt.Errorf("active_cores and threads_per_core must be non-negative")
	}
	if d := r.Detector; d != nil {
		if !isFinite(d.Slack) || d.Slack < 0 || !isFinite(d.Threshold) || d.Threshold < 0 || d.MinWindows < 0 {
			return fmt.Errorf("detector values must be finite and non-negative")
		}
	}
	if r.Stream != "" && !streamNameRE.MatchString(r.Stream) {
		return fmt.Errorf("stream must match %s", streamNameRE)
	}
	if r.History < 0 || r.History > maxWatchHistory {
		return fmt.Errorf("history must be in [0, %d]", maxWatchHistory)
	}
	return nil
}

// DecodeWatchRequest parses and validates a /v1/watch body.
func DecodeWatchRequest(data []byte) (*WatchRequest, error) {
	var r WatchRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// watchSource builds the sample source and the measurement context the
// request implies: inline samples carry the request's own classification,
// a replay derives cores/threads/access pattern from the simulated runs.
func (s *Server) watchSource(ctx context.Context, p *platform.Platform, req *WatchRequest) (stream.Source, stream.Config, error) {
	cfg := stream.Config{
		Platform:       p,
		WindowSamples:  req.WindowSamples,
		StrideSamples:  req.StrideSamples,
		ActiveCores:    req.ActiveCores,
		ThreadsPerCore: req.ThreadsPerCore,
		RandomAccess:   req.RandomAccess,
	}
	if d := req.Detector; d != nil {
		cfg.Detector = stream.DetectorConfig{Slack: d.Slack, Threshold: d.Threshold, MinWindows: d.MinWindows}
	}
	if len(req.Samples) > 0 {
		samples := make([]stream.Sample, len(req.Samples))
		for i, in := range req.Samples {
			samples[i] = stream.Sample{TS: in.TS, BandwidthGBs: in.BandwidthGBs, PrefetchedReadFraction: -1}
			if in.PrefetchedReadFraction != nil {
				samples[i].PrefetchedReadFraction = *in.PrefetchedReadFraction
			}
		}
		return stream.NewSliceSource(samples), cfg, nil
	}

	phases := make([]stream.ReplayPhase, len(req.Phases))
	for i, ph := range req.Phases {
		wl, ok := workloads.ByName(ph.Workload)
		if !ok {
			return nil, cfg, failWith(http.StatusNotFound, fmt.Errorf("unknown workload %q", ph.Workload))
		}
		wl = wl.WithVariant(ph.Variant.Variant())
		threads := ph.ThreadsPerCore
		if threads == 0 {
			threads = 1
		}
		if threads > p.SMTWays {
			return nil, cfg, failWith(http.StatusBadRequest,
				fmt.Errorf("platform %s supports at most %d threads per core", p.Name, p.SMTWays))
		}
		scale := ph.Scale
		if scale == 0 {
			scale = 0.1
		}
		phases[i] = stream.ReplayPhase{Label: wl.Routine(), Config: wl.Config(p, threads, scale), Samples: ph.Samples}
		cfg.RandomAccess = cfg.RandomAccess || wl.RandomAccess()
	}
	src, results, err := stream.Replay(ctx, phases, stream.ReplayOptions{PeriodS: req.PeriodS, Workers: s.cfg.Workers})
	if err != nil {
		return nil, cfg, err
	}
	for _, res := range results {
		cfg.ActiveCores = max(cfg.ActiveCores, res.Result.Cores)
		cfg.ThreadsPerCore = max(cfg.ThreadsPerCore, res.Result.ThreadsPerCore)
	}
	return src, cfg, nil
}

// registerWatch claims a stream name for a broker. The registration
// outlives the originating request so late subscribers can replay the
// finished stream from history.
func (s *Server) registerWatch(name string, br *stream.Broker) error {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if len(s.watches) >= maxNamedStreams {
		return failWith(http.StatusTooManyRequests, fmt.Errorf("at most %d named streams", maxNamedStreams))
	}
	if _, ok := s.watches[name]; ok {
		return failWith(http.StatusConflict, fmt.Errorf("stream %q already exists", name))
	}
	s.watches[name] = br
	return nil
}

func (s *Server) lookupWatch(name string) *stream.Broker {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return s.watches[name]
}

// handleWatch is POST /v1/watch: build the source (running any replay
// simulations up front, so errors still map to clean status codes), then
// stream the monitor's events to the caller. The monitor publishes into a
// broker, never directly to the connection, so a slow caller drops old
// events rather than stalling the pipeline — and named streams serve other
// subscribers at full speed regardless.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) error {
	body, err := ReadBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeWatchRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}
	p, err := platform.ByName(req.Platform)
	if err != nil {
		return failWith(http.StatusNotFound, err)
	}
	profile, _, err := s.profile(r.Context(), p)
	if err != nil {
		return err
	}
	src, cfg, err := s.watchSource(r.Context(), p, req)
	if err != nil {
		return err
	}
	cfg.Profile = profile
	if err := cfg.Validate(); err != nil {
		return failWith(http.StatusBadRequest, err)
	}

	label := req.Stream
	if label == "" {
		label = "adhoc"
	}
	br := stream.NewBroker(req.History)
	br.OnPublish = func() { s.streamEvents.With(label).Inc() }
	br.OnDrop = func() { s.streamDropped.With(label).Inc() }
	if req.Stream != "" {
		if err := s.registerWatch(req.Stream, br); err != nil {
			return err
		}
	} else {
		// Ad-hoc streams must still hear the terminal shutdown event on
		// drain; named ones are reachable through the watch registry.
		defer s.trackStream(br)()
	}

	// The monitor runs on the request context: if the originating client
	// goes away (or times out), the stream ends for everyone.
	done := make(chan error, 1)
	go func() {
		defer br.Close()
		_, err := stream.Monitor(r.Context(), src, cfg, func(ev stream.Event) error {
			br.Publish(ev)
			return nil
		})
		if err != nil {
			// Graceful degradation: a monitor that dies mid-stream (an
			// injected fault, an expired context) publishes a terminal
			// error event before the broker closes, so every subscriber —
			// including late ones replaying history — learns why the
			// stream ended instead of seeing a silent truncation.
			br.Publish(stream.Event{Kind: "error", Error: &stream.ErrorEvent{Message: err.Error()}})
		}
		done <- err
	}()
	if err := s.serveStream(w, r, label, br); err != nil {
		return err
	}
	<-done
	return nil
}

// handleWatchSubscribe is GET /v1/watch/{stream}: attach to a named
// stream's broker. Late subscribers replay history first, so every
// subscriber observes the same event sequence.
func (s *Server) handleWatchSubscribe(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("stream")
	br := s.lookupWatch(name)
	if br == nil {
		return failWith(http.StatusNotFound, fmt.Errorf("unknown stream %q", name))
	}
	return s.serveStream(w, r, name, br)
}

// serveStream subscribes to the broker and writes events to the client
// until the stream closes or the client disconnects. NDJSON by default;
// SSE when the Accept header asks for text/event-stream.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, label string, br *stream.Broker) error {
	buffer, err := queryInt(r, "buffer", 256, maxWatchHistory)
	if err != nil {
		return err
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	contentType := "application/x-ndjson"
	if sse {
		contentType = "text/event-stream"
	}

	sub := br.Subscribe(buffer)
	defer sub.Close()
	gauge := s.streamSubs.With(label)
	gauge.Inc()
	defer gauge.Dec()

	enc := json.NewEncoder(w)
	serveEvents(s.Envelope, w, r, sub, contentType, 0, func(ev stream.Event) error {
		// The stream-serving fault site: a drip fault delays each event
		// write (a client on a congested link); bounded by the same
		// per-write deadline as a genuinely slow peer.
		if f := s.faults.Eval("stream.serve"); f.Kind == faults.KindDrip || f.Kind == faults.KindLatency {
			f.Sleep(r.Context())
		}
		if !sse {
			return enc.Encode(ev)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind, ev.Seq, data)
		return err
	})
	return nil
}
