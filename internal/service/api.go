package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"littleslaw/internal/core"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
)

// MaxBodyBytes bounds request bodies; the API's requests are tiny JSON
// objects, so anything larger is malformed or hostile.
const MaxBodyBytes = 1 << 20

// VariantSpec selects a workload's optimization state over the wire.
type VariantSpec struct {
	Vectorized       bool `json:"vectorized,omitempty"`
	SWPrefetchL2     bool `json:"sw_prefetch_l2,omitempty"`
	SWPrefetchL1     bool `json:"sw_prefetch_l1,omitempty"`
	PrefetchDistance int  `json:"prefetch_distance,omitempty"`
	Tiled            bool `json:"tiled,omitempty"`
	UnrollJam        bool `json:"unroll_jam,omitempty"`
	NoFuse           bool `json:"no_fuse,omitempty"`
}

// Variant converts the wire form to the workloads type.
func (v *VariantSpec) Variant() workloads.Variant {
	if v == nil {
		return workloads.Variant{}
	}
	return workloads.Variant{
		Vectorized:       v.Vectorized,
		SWPrefetchL2:     v.SWPrefetchL2,
		SWPrefetchL1:     v.SWPrefetchL1,
		PrefetchDistance: v.PrefetchDistance,
		Tiled:            v.Tiled,
		UnrollJam:        v.UnrollJam,
		NoFuse:           v.NoFuse,
	}
}

// MeasurementSpec is a directly supplied counter measurement — the
// "analyst already has numbers" path that skips the simulated run.
type MeasurementSpec struct {
	Routine      string  `json:"routine,omitempty"`
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// ActiveCores in the measured run; 0 means the full node.
	ActiveCores int `json:"active_cores,omitempty"`
	// ThreadsPerCore in the measured run; 0 means 1.
	ThreadsPerCore int `json:"threads_per_core,omitempty"`
	// PrefetchedReadFraction, when the platform's counters expose it;
	// nil means unknown (the classification falls back to RandomAccess).
	PrefetchedReadFraction *float64 `json:"prefetched_read_fraction,omitempty"`
	RandomAccess           bool     `json:"random_access,omitempty"`
}

// Measurement converts the wire form to the core type.
func (m *MeasurementSpec) Measurement() core.Measurement {
	out := core.Measurement{
		Routine:                m.Routine,
		BandwidthGBs:           m.BandwidthGBs,
		ActiveCores:            m.ActiveCores,
		ThreadsPerCore:         m.ThreadsPerCore,
		PrefetchedReadFraction: -1,
		RandomAccess:           m.RandomAccess,
	}
	if out.ThreadsPerCore == 0 {
		out.ThreadsPerCore = 1
	}
	if m.PrefetchedReadFraction != nil {
		out.PrefetchedReadFraction = *m.PrefetchedReadFraction
	}
	return out
}

func (m *MeasurementSpec) validate() error {
	if !isFinite(m.BandwidthGBs) || m.BandwidthGBs < 0 {
		return fmt.Errorf("measurement.bandwidth_gbs must be finite and non-negative")
	}
	if m.ActiveCores < 0 {
		return fmt.Errorf("measurement.active_cores must be non-negative")
	}
	if m.ThreadsPerCore < 0 {
		return fmt.Errorf("measurement.threads_per_core must be non-negative")
	}
	if f := m.PrefetchedReadFraction; f != nil && (!isFinite(*f) || *f < 0 || *f > 1) {
		return fmt.Errorf("measurement.prefetched_read_fraction must be in [0, 1]")
	}
	return nil
}

// AnalyzeRequest is the input to /v1/analyze and /v1/advise. Exactly one
// of Measurement (direct counters) or Workload (simulate, then analyze)
// must be supplied.
type AnalyzeRequest struct {
	Platform    string           `json:"platform"`
	Workload    string           `json:"workload,omitempty"`
	Variant     *VariantSpec     `json:"variant,omitempty"`
	Measurement *MeasurementSpec `json:"measurement,omitempty"`
	// ThreadsPerCore for the simulated run (default 1).
	ThreadsPerCore int `json:"threads_per_core,omitempty"`
	// Scale for the simulated run (default 0.1 — interactive latency;
	// 1.0 is full benchmark size).
	Scale float64 `json:"scale,omitempty"`
}

func (r *AnalyzeRequest) validate() error {
	if r.Platform == "" {
		return fmt.Errorf("platform is required")
	}
	if (r.Workload == "") == (r.Measurement == nil) {
		return fmt.Errorf("exactly one of workload or measurement is required")
	}
	if r.Measurement != nil {
		if r.Variant != nil || r.ThreadsPerCore != 0 || r.Scale != 0 {
			return fmt.Errorf("variant, threads_per_core and scale apply only to workload runs")
		}
		return r.Measurement.validate()
	}
	if r.ThreadsPerCore < 0 || r.ThreadsPerCore > 8 {
		return fmt.Errorf("threads_per_core must be in [1, 8]")
	}
	return validateScale(r.Scale)
}

// CharacterizeRequest is the input to /v1/characterize.
type CharacterizeRequest struct {
	Platform string `json:"platform"`
}

func (r *CharacterizeRequest) validate() error {
	if r.Platform == "" {
		return fmt.Errorf("platform is required")
	}
	return nil
}

// TuneRequest is the input to /v1/tune.
type TuneRequest struct {
	Platform string `json:"platform"`
	Workload string `json:"workload"`
	// Scale per probe run (default 0.1).
	Scale float64 `json:"scale,omitempty"`
	// MaxSteps bounds the loop (default 8).
	MaxSteps int `json:"max_steps,omitempty"`
	// AcceptThreshold is the minimum speedup to keep a change (default 1.03).
	AcceptThreshold float64 `json:"accept_threshold,omitempty"`
	// UserIntuition enables the §IV-F fallback.
	UserIntuition bool `json:"user_intuition,omitempty"`
}

func (r *TuneRequest) validate() error {
	if r.Platform == "" {
		return fmt.Errorf("platform is required")
	}
	if r.Workload == "" {
		return fmt.Errorf("workload is required")
	}
	if r.MaxSteps < 0 || r.MaxSteps > 64 {
		return fmt.Errorf("max_steps must be in [0, 64]")
	}
	if t := r.AcceptThreshold; t != 0 && (!isFinite(t) || t < 0.5 || t > 10) {
		return fmt.Errorf("accept_threshold must be in [0.5, 10]")
	}
	return validateScale(r.Scale)
}

func validateScale(s float64) error {
	if s == 0 {
		return nil
	}
	if !isFinite(s) || s <= 0 || s > 1 {
		return fmt.Errorf("scale must be in (0, 1]")
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// decodeStrict unmarshals JSON rejecting unknown fields, trailing garbage
// and non-object payloads — the hard shell the fuzz target leans on.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("invalid JSON: trailing data after request object")
	}
	return nil
}

// DecodeAnalyzeRequest parses and validates an /v1/analyze body.
func DecodeAnalyzeRequest(data []byte) (*AnalyzeRequest, error) {
	var r AnalyzeRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeCharacterizeRequest parses and validates a /v1/characterize body.
func DecodeCharacterizeRequest(data []byte) (*CharacterizeRequest, error) {
	var r CharacterizeRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// DecodeTuneRequest parses and validates a /v1/tune body.
func DecodeTuneRequest(data []byte) (*TuneRequest, error) {
	var r TuneRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// NormalizeTableID maps the accepted spellings of a table identifier to
// the canonical roman numeral: "IV".."IX" (any case), "T4".."T9", or
// "4".."9".
func NormalizeTableID(id string) (string, error) {
	up := strings.ToUpper(strings.TrimSpace(id))
	up = strings.TrimPrefix(up, "T")
	switch up {
	case "IV", "4":
		return "IV", nil
	case "V", "5":
		return "V", nil
	case "VI", "6":
		return "VI", nil
	case "VII", "7":
		return "VII", nil
	case "VIII", "8":
		return "VIII", nil
	case "IX", "9":
		return "IX", nil
	}
	return "", fmt.Errorf("unknown table %q (want IV..IX, T4..T9 or 4..9)", id)
}

// ---- response mirrors (stable wire names for internal types) ----

// PlatformJSON describes one machine.
type PlatformJSON struct {
	Name      string  `json:"name"`
	Vendor    string  `json:"vendor"`
	ISA       string  `json:"isa"`
	Cores     int     `json:"cores"`
	SMTWays   int     `json:"smt_ways"`
	FreqGHz   float64 `json:"freq_ghz"`
	LineBytes int     `json:"line_bytes"`
	PeakGBs   float64 `json:"peak_gbs"`
	L1MSHRs   int     `json:"l1_mshrs"`
	L2MSHRs   int     `json:"l2_mshrs"`
}

// ReportJSON mirrors core.Report.
type ReportJSON struct {
	Routine            string  `json:"routine,omitempty"`
	Platform           string  `json:"platform"`
	BandwidthGBs       float64 `json:"bandwidth_gbs"`
	PeakFraction       float64 `json:"peak_fraction"`
	AchievableFraction float64 `json:"achievable_fraction"`
	LatencyNs          float64 `json:"latency_ns"`
	Occupancy          float64 `json:"occupancy"`
	Limiter            string  `json:"limiter"`
	LimiterCapacity    int     `json:"limiter_capacity"`
	HeadroomFraction   float64 `json:"headroom_fraction"`
	L2SpareMSHRs       float64 `json:"l2_spare_mshrs"`
	OccupancySaturated bool    `json:"occupancy_saturated"`
	BandwidthSaturated bool    `json:"bandwidth_saturated"`
	ComputeBound       bool    `json:"compute_bound"`
}

func reportJSON(r *core.Report) ReportJSON {
	return ReportJSON{
		Routine:            r.Routine,
		Platform:           r.Platform,
		BandwidthGBs:       r.BandwidthGBs,
		PeakFraction:       r.PeakFraction,
		AchievableFraction: r.AchievableFraction,
		LatencyNs:          r.LatencyNs,
		Occupancy:          r.Occupancy,
		Limiter:            r.Limiter.String(),
		LimiterCapacity:    r.LimiterCapacity,
		HeadroomFraction:   r.HeadroomFraction,
		L2SpareMSHRs:       r.L2SpareMSHRs,
		OccupancySaturated: r.OccupancySaturated(),
		BandwidthSaturated: r.BandwidthSaturated(),
		ComputeBound:       r.ComputeBound(),
	}
}

// RunJSON mirrors the interesting parts of sim.Result.
type RunJSON struct {
	Cores                  int     `json:"cores"`
	ThreadsPerCore         int     `json:"threads_per_core"`
	Throughput             float64 `json:"throughput"`
	ReadGBs                float64 `json:"read_gbs"`
	WriteGBs               float64 `json:"write_gbs"`
	TotalGBs               float64 `json:"total_gbs"`
	MeanDRAMLatencyNs      float64 `json:"mean_dram_latency_ns"`
	TrueL1Occ              float64 `json:"true_l1_occ"`
	TrueL2Occ              float64 `json:"true_l2_occ"`
	PrefetchedReadFraction float64 `json:"prefetched_read_fraction"`
}

func runJSON(r *sim.Result) *RunJSON {
	return &RunJSON{
		Cores:                  r.Cores,
		ThreadsPerCore:         r.ThreadsPerCore,
		Throughput:             r.Throughput,
		ReadGBs:                r.ReadGBs,
		WriteGBs:               r.WriteGBs,
		TotalGBs:               r.TotalGBs,
		MeanDRAMLatencyNs:      r.MeanDRAMLatencyNs,
		TrueL1Occ:              r.TrueL1Occ,
		TrueL2Occ:              r.TrueL2Occ,
		PrefetchedReadFraction: r.PrefetchedReadFraction,
	}
}

// AnalyzeResponse is the output of /v1/analyze.
type AnalyzeResponse struct {
	Report      ReportJSON `json:"report"`
	Run         *RunJSON   `json:"run,omitempty"`
	Explanation string     `json:"explanation"`
	// Degraded marks a brownout answer: the report is still correct for
	// the question asked, but it was produced by a cheaper path. Exactly
	// one of Approximate (closed-form analytic model instead of the
	// discrete-event kernel; Run is absent) or Stale (an expired cache
	// entry served past its TTL) explains why, and BrownoutMode names the
	// ladder rung that chose it.
	Degraded     bool   `json:"degraded,omitempty"`
	BrownoutMode string `json:"brownout_mode,omitempty"`
	Approximate  bool   `json:"approximate,omitempty"`
	Stale        bool   `json:"stale,omitempty"`
}

// AdviceJSON is one recipe verdict.
type AdviceJSON struct {
	Optimization string `json:"optimization"`
	Stance       string `json:"stance"`
	Reason       string `json:"reason"`
}

// AdviseResponse is the output of /v1/advise.
type AdviseResponse struct {
	Report      ReportJSON   `json:"report"`
	Advice      []AdviceJSON `json:"advice"`
	Explanation string       `json:"explanation"`
	// Degraded/BrownoutMode/Approximate/Stale: see AnalyzeResponse.
	Degraded     bool   `json:"degraded,omitempty"`
	BrownoutMode string `json:"brownout_mode,omitempty"`
	Approximate  bool   `json:"approximate,omitempty"`
	Stale        bool   `json:"stale,omitempty"`
}

// CharacterizeResponse is the output of /v1/characterize.
type CharacterizeResponse struct {
	Platform  string      `json:"platform"`
	LineBytes int         `json:"line_bytes"`
	Points    []PointJSON `json:"points"`
	// Cached reports whether the profile was served from the profile
	// cache (or deduplicated onto a concurrent characterization) rather
	// than measured for this request.
	Cached bool `json:"cached"`
}

// PointJSON is one profile sample.
type PointJSON struct {
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	LatencyNs    float64 `json:"latency_ns"`
}

// TuneStepJSON is one accepted/rejected probe of the tuning loop.
type TuneStepJSON struct {
	Tried    string     `json:"tried"`
	Speedup  float64    `json:"speedup"`
	Accepted bool       `json:"accepted"`
	Report   ReportJSON `json:"report"`
}

// TuneResponse is the output of /v1/tune.
type TuneResponse struct {
	Workload     string         `json:"workload"`
	Platform     string         `json:"platform"`
	Steps        []TuneStepJSON `json:"steps"`
	FinalSource  string         `json:"final_source"`
	TotalSpeedup float64        `json:"total_speedup"`
	FinalReport  ReportJSON     `json:"final_report"`
}

// TableRowJSON mirrors experiments.Row.
type TableRowJSON struct {
	Platform     string  `json:"platform"`
	Source       string  `json:"source"`
	Threads      int     `json:"threads"`
	BWGBs        float64 `json:"bw_gbs"`
	PeakPct      float64 `json:"peak_pct"`
	LatNs        float64 `json:"lat_ns"`
	Occupancy    float64 `json:"n_avg"`
	TrueL1Occ    float64 `json:"true_l1_occ"`
	TrueL2Occ    float64 `json:"true_l2_occ"`
	NextOpt      string  `json:"next_opt,omitempty"`
	Stance       string  `json:"stance,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	PaperBW      float64 `json:"paper_bw,omitempty"`
	PaperOcc     float64 `json:"paper_n_avg,omitempty"`
	PaperSpeedup float64 `json:"paper_speedup,omitempty"`
}

// TableResponse is the output of /v1/tables/{id}.
type TableResponse struct {
	ID       string         `json:"id"`
	Workload string         `json:"workload"`
	Routine  string         `json:"routine"`
	Scale    float64        `json:"scale"`
	Rows     []TableRowJSON `json:"rows"`
	// Cached reports whether the table came from the table cache.
	Cached bool `json:"cached"`
}

// ErrorResponse is the error envelope every non-2xx response carries.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthzResponse is the readiness body GET /healthz returns. The endpoint
// keeps its plain-200 liveness contract (it never returns non-200 while the
// process serves); the body tells a cluster prober "overloaded", the
// brownout rung and "draining" apart from "up", and reports the limiter's
// measured n_avg.
type HealthzResponse struct {
	// Status is "ok"; "overloaded" when the admission controller has its
	// ceiling's worth of requests in flight (new ones are queueing or
	// shedding; the process is still alive); or "draining" once shutdown
	// began — draining wins, it tells the prober to route elsewhere now.
	Status  string `json:"status"`
	Version string `json:"version"`
	// BrownoutMode is the degradation rung currently serving ("B0".."B4";
	// empty when the brownout controller is disabled). Draining reports
	// that shutdown has begun and new work is being refused.
	BrownoutMode string `json:"brownout_mode,omitempty"`
	Draining     bool   `json:"draining,omitempty"`
	// LimiterNAvg is the admission controller's measured n_avg, the
	// windowed mean of LimiterInflight (absent when admission control is
	// disabled).
	LimiterNAvg     *float64 `json:"limiter_navg,omitempty"`
	LimiterCeiling  *float64 `json:"limiter_ceiling,omitempty"`
	LimiterInflight int      `json:"limiter_inflight,omitempty"`
	QueueDepth      int      `json:"queue_depth,omitempty"`
	// ActiveStreams counts named /v1/watch brokers currently registered.
	ActiveStreams int `json:"active_streams"`
	// StreamClients counts live watch connections held by the stream
	// limiter (ceiling -max-streams).
	StreamClients int `json:"stream_clients"`
}
