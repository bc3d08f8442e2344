// POST /v1/analyze/batch: coalesce up to MaxBatchSize analyze requests
// into one HTTP request, fanned out across the engine pool. One admission
// slot covers the whole batch, so under load a client batching N analyses
// consumes 1/N of the arrival budget a naive client would — the
// batching-as-load-management move the endpoint exists to reward.
package service

import (
	"context"
	"fmt"
	"net/http"

	"littleslaw/internal/engine"
)

// MaxBatchSize bounds one /v1/analyze/batch request.
const MaxBatchSize = 16

// BatchAnalyzeRequest is the input to /v1/analyze/batch.
type BatchAnalyzeRequest struct {
	Requests []AnalyzeRequest `json:"requests"`
}

func (r *BatchAnalyzeRequest) validate() error {
	if len(r.Requests) == 0 {
		return fmt.Errorf("requests is required")
	}
	if len(r.Requests) > MaxBatchSize {
		return fmt.Errorf("at most %d requests per batch", MaxBatchSize)
	}
	for i := range r.Requests {
		if err := r.Requests[i].validate(); err != nil {
			return fmt.Errorf("requests[%d]: %w", i, err)
		}
	}
	return nil
}

// DecodeBatchAnalyzeRequest parses and validates a /v1/analyze/batch body.
func DecodeBatchAnalyzeRequest(data []byte) (*BatchAnalyzeRequest, error) {
	var r BatchAnalyzeRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// BatchResultJSON is one batch item's outcome: exactly one of Analyze or
// Error is set. Per-item failures (unknown platform, invalid measurement)
// stay per-item so one bad request cannot void its batchmates.
type BatchResultJSON struct {
	Analyze *AnalyzeResponse `json:"analyze,omitempty"`
	Error   string           `json:"error,omitempty"`
}

// BatchAnalyzeResponse is the output of /v1/analyze/batch; Results is
// index-aligned with the request's Requests.
type BatchAnalyzeResponse struct {
	Results []BatchResultJSON `json:"results"`
	Errors  int               `json:"errors"`
}

func (s *Server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) error {
	body, err := ReadBody(r)
	if err != nil {
		return err
	}
	req, err := DecodeBatchAnalyzeRequest(body)
	if err != nil {
		return failWith(http.StatusBadRequest, err)
	}

	jobs := make([]func(context.Context) (BatchResultJSON, error), len(req.Requests))
	for i := range req.Requests {
		item := &req.Requests[i]
		jobs[i] = func(ctx context.Context) (BatchResultJSON, error) {
			resp, err := s.analyzeOne(ctx, item)
			if err != nil {
				// The whole batch shares one deadline; expiry fails it as a
				// unit so the usual 504/499 mapping applies.
				if ctx.Err() != nil {
					return BatchResultJSON{}, err
				}
				return BatchResultJSON{Error: err.Error()}, nil
			}
			return BatchResultJSON{Analyze: resp}, nil
		}
	}
	results, err := engine.Map(r.Context(), engine.New(s.cfg.Workers), jobs)
	if err != nil {
		return err
	}
	resp := BatchAnalyzeResponse{Results: results}
	degraded := false
	for _, res := range results {
		if res.Error != "" {
			resp.Errors++
		}
		if res.Analyze != nil && res.Analyze.Degraded {
			degraded = true
		}
	}
	if degraded {
		// Any degraded item marks the whole batch on the wire; per-item
		// markers stay in the body.
		w.Header().Set("X-Degraded", "true")
	}
	s.WriteJSON(w, http.StatusOK, resp)
	return nil
}
