package limit_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"littleslaw/internal/limit"
	"littleslaw/internal/loadgen"
)

// TestShedThenRecover is the end-to-end acceptance run, in miniature: a
// server whose handler takes ~20ms behind a ceiling of 4 (capacity ≈
// 200 req/s) is driven open-loop at roughly 4× capacity. The limiter must
// shed the excess with 429 + Retry-After while keeping admitted latency
// bounded near the queue budget, and once the overload stops, a polite
// closed-loop client must see no sheds at all.
func TestShedThenRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("drives multi-second load phases")
	}
	const service = 20 * time.Millisecond
	l := limit.New(limit.Config{
		Ceiling:      4,
		MaxQueue:     2,
		QueueTimeout: 15 * time.Millisecond,
		RateHalfLife: 250 * time.Millisecond,
	})
	handler := limit.Handler(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(handler)
	defer ts.Close()

	// Phase 1 — unloaded baseline: two closed-loop clients, well under the
	// ceiling, everything admitted.
	base, err := loadgen.Run(context.Background(), loadgen.Options{
		URL: ts.URL, Mode: "closed", Concurrency: 2, Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Shed != 0 || base.Failed != 0 || base.OK == 0 {
		t.Fatalf("baseline: %s", base)
	}
	p99base := base.Quantile(0.99)

	// Phase 2 — open-loop overload at ~4× capacity. The open loop keeps
	// offering regardless of responses; that is the discipline that forces
	// the shed path.
	over, err := loadgen.Run(context.Background(), loadgen.Options{
		URL: ts.URL, Mode: "open", Rate: 800, Duration: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if over.Shed == 0 {
		t.Fatalf("overload produced no sheds: %s", over)
	}
	if over.RetryAfterSeen != over.Shed {
		t.Fatalf("sheds %d but Retry-After hints %d — every 429 must carry one", over.Shed, over.RetryAfterSeen)
	}
	if over.OK == 0 {
		t.Fatalf("overload admitted nothing: %s", over)
	}
	// Admitted requests stay fast: worst case is the service time plus the
	// queue budget; the acceptance bar is 2× the unloaded p99 (with a small
	// allowance for scheduler noise on a loaded test machine).
	p99over := over.Quantile(0.99)
	if limit := 2*p99base + 20*time.Millisecond; p99over > limit {
		t.Fatalf("admitted p99 under overload = %s, want <= %s (baseline p99 %s)", p99over, limit, p99base)
	}

	// Phase 3 — recovery: the same polite client as the baseline. Admission
	// reads only what is in flight, so the post-overload server admits
	// everything again at once.
	rec, err := loadgen.Run(context.Background(), loadgen.Options{
		URL: ts.URL, Mode: "closed", Concurrency: 2, Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Shed != 0 || rec.Failed != 0 || rec.OK == 0 {
		t.Fatalf("recovery still shedding: %s", rec)
	}

	snap := l.Snapshot()
	if snap.Shed == 0 || snap.Admitted == 0 || snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Fatalf("final snapshot = %+v", snap)
	}
}

// TestHandlerShedResponseShape: the standalone middleware's 429 carries
// the Retry-After header and a JSON error envelope.
func TestHandlerShedResponseShape(t *testing.T) {
	l := limit.New(limit.Config{Ceiling: 1, MaxQueue: -1})
	release, _, err := l.Acquire(context.Background(), "/hold")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	h := limit.Handler(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// TestHandlerPanicReleasesSlot is the slot-leak regression test for the
// standalone middleware: before the panic guard, a panicking handler
// unwound past the release and its slot stayed booked forever — with a
// ceiling of 1, one panic wedged the limiter shut. Alternating guaranteed
// panics with clean requests proves the slot comes home every time, and
// that the panic surfaces as a 500 JSON envelope rather than a severed
// connection.
func TestHandlerPanicReleasesSlot(t *testing.T) {
	l := limit.New(limit.Config{Ceiling: 1, MaxQueue: -1})
	h := limit.Handler(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("kaboom")
		}
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	for i := 0; i < 8; i++ {
		resp, err := http.Get(ts.URL + "/boom")
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
		resp, err = http.Get(ts.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: request after panic = %d, want 200 (slot leaked?)", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if snap := l.Snapshot(); snap.InFlight != 0 {
		t.Fatalf("in-flight = %d after all requests, want 0", snap.InFlight)
	}
}

// TestHandlerPanicAfterWriteDoesNotDoubleRespond: a handler that panics
// after it already started its response must not get a second 500 header
// stacked on top — but its slot still comes back.
func TestHandlerPanicAfterWriteDoesNotDoubleRespond(t *testing.T) {
	l := limit.New(limit.Config{Ceiling: 1, MaxQueue: -1})
	h := limit.Handler(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want the handler's own 202 preserved", rec.Code)
	}
	if snap := l.Snapshot(); snap.InFlight != 0 {
		t.Fatalf("in-flight = %d, want 0", snap.InFlight)
	}
}
