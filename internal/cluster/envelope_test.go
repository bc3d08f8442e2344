package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"littleslaw/internal/faults"
	"littleslaw/internal/service"
	"littleslaw/internal/trace"
)

// TestProxyHandlerPanicAnswers500: a panic in the proxy's part of a request
// is the shared envelope's to answer, as it is for llserved — a JSON 500
// with the trace recording 500, never a severed connection and a trace
// that says 200.
func TestProxyHandlerPanicAnswers500(t *testing.T) {
	t.Run("forward-site", func(t *testing.T) {
		inj, err := faults.New(7, faults.Rule{Site: ForwardFaultSite, Kind: faults.KindPanic, P: 1})
		if err != nil {
			t.Fatal(err)
		}
		p, stubs := newStubCluster(t, 2, func(c *Config) { c.FaultInjector = inj })
		ts := httptest.NewServer(p.Handler())
		defer ts.Close()

		for i := 0; i < 5; i++ {
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
			if err != nil {
				t.Fatalf("round %d: the panic severed the connection: %v", i, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("round %d: status %d (%s), want 500", i, resp.StatusCode, body)
			}
			var apiErr service.ErrorResponse
			if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error == "" {
				t.Fatalf("round %d: 500 body is not the JSON error envelope: %s", i, body)
			}
			tresp, err := http.Get(ts.URL + "/v1/trace/" + resp.Header.Get("X-Trace-Id"))
			if err != nil {
				t.Fatal(err)
			}
			var view trace.View
			err = json.NewDecoder(tresp.Body).Decode(&view)
			tresp.Body.Close()
			if err != nil || view.Status != http.StatusInternalServerError {
				t.Fatalf("round %d: trace of the panicked request = %+v (%v), want status 500", i, view, err)
			}
		}
		for _, s := range stubs {
			if s.hits.Load() != 0 {
				t.Fatalf("backend %s reached past a panicking forward site", s.name)
			}
		}

		if err := inj.Configure(7, nil); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clean request after the panics = %d, want 200", resp.StatusCode)
		}
		if n := p.InFlight(); n != 0 {
			t.Fatalf("InFlight = %d after every request finished, want 0", n)
		}
	})

	// A route that panics after it started its response keeps that
	// response: no second WriteHeader is stacked on it, and its slot in the
	// envelope still comes back.
	t.Run("after-write", func(t *testing.T) {
		env := service.NewEnvelope("proxy", 0, 0)
		h := env.Wrap("late", func(w http.ResponseWriter, r *http.Request) error {
			w.WriteHeader(http.StatusAccepted)
			panic("late kaboom")
		})
		rec := &countingRecorder{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/late", nil))
		if rec.Code != http.StatusAccepted || rec.headers != 1 {
			t.Fatalf("status %d after %d WriteHeader calls, want the route's own 202 once", rec.Code, rec.headers)
		}
		if n := env.InFlight(); n != 0 {
			t.Fatalf("InFlight = %d after the panic, want 0", n)
		}
	})
}

// countingRecorder counts WriteHeader calls reaching the connection.
type countingRecorder struct {
	*httptest.ResponseRecorder
	headers int
}

func (c *countingRecorder) WriteHeader(code int) {
	c.headers++
	c.ResponseRecorder.WriteHeader(code)
}
