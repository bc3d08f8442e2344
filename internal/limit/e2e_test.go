package limit_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
)

// The limiter has no HTTP middleware of its own: llserved's request
// envelope is the one place it meets HTTP. These tests pin the limiter's
// two HTTP-facing promises — the shape of a shed and release-on-panic —
// on that production path, with a ceiling of 1 and no queue so a held or
// leaked slot turns into an instant 429.

const analyzeBody = `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`

func newLimitedServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	cfg.LimitCeiling = 1
	cfg.LimitQueue = -1
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// limiterInflight reads llserved_limiter_inflight from the server's
// registry: the limiter's own count of booked slots.
func limiterInflight(t *testing.T, s *service.Server) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "llserved_limiter_inflight "); ok {
			return v
		}
	}
	t.Fatalf("no llserved_limiter_inflight in /metrics:\n%s", b.String())
	return ""
}

// TestHandlerShedResponseShape: the limiter's 429 carries the Retry-After
// header and a JSON error envelope.
func TestHandlerShedResponseShape(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	_, ts := newLimitedServer(t, service.Config{
		ProfileFor: func(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return experiments.PaperProfileFor(p)
		},
	})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
		if err == nil {
			resp.Body.Close()
		}
	}()
	defer func() { <-holderDone }()
	defer close(release)
	<-entered // the holder now has the limiter's only slot

	resp, err := http.Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		t.Fatalf("429 body is not the JSON error envelope: %s", body)
	}
}

// TestHandlerPanicReleasesSlot is the slot-leak regression test: a
// panicking handler that unwound past the release would keep its slot
// booked forever — with a ceiling of 1, one panic would wedge the limiter
// shut. Alternating guaranteed panics with clean requests proves the slot
// comes home every time, and that the panic surfaces as a 500 JSON
// envelope rather than a severed connection.
func TestHandlerPanicReleasesSlot(t *testing.T) {
	inj, err := faults.New(9, faults.Rule{Site: "handler.platforms", Kind: faults.KindPanic, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newLimitedServer(t, service.Config{
		ProfileFor: func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return experiments.PaperProfileFor(p)
		},
		FaultInjector: inj,
	})

	for i := 0; i < 8; i++ {
		resp, err := http.Get(ts.URL + "/v1/platforms")
		if err != nil {
			t.Fatalf("round %d: panic severed the connection: %v", i, err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("round %d: status = %d, want 500", i, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("round %d: Content-Type = %q", i, ct)
		}
		resp.Body.Close()

		// With ceiling 1 and no queue, a leaked slot makes this a 429.
		resp, err = http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: request after panic = %d, want 200 (slot leaked?)", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := limiterInflight(t, s); got != "0" {
		t.Fatalf("limiter in-flight = %s after all requests, want 0", got)
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("envelope in-flight = %d after all requests, want 0", n)
	}
}
