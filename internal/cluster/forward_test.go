package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestProxyGetReachesOneBackend: a slow GET through a proxy with every
// forwarding default is asked of one backend only. A second copy of the
// same table run on another backend would compete with the first for the
// same cores and warm a cache the ring does not route to.
func TestProxyGetReachesOneBackend(t *testing.T) {
	p, stubs := newStubCluster(t, 3, func(c *Config) { *c = Config{Backends: c.Backends} })
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	for _, s := range stubs {
		s.delay.Store(int64(400 * time.Millisecond))
	}

	resp, err := http.Get(ts.URL + "/v1/tables/IV?scale=0.05")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	reached, total := 0, int64(0)
	for _, s := range stubs {
		if n := s.hits.Load(); n > 0 {
			reached++
			total += n
		}
	}
	if reached != 1 || total != 1 {
		t.Fatalf("GET reached %d backends with %d requests, want 1 and 1", reached, total)
	}
}

// TestProxySlowAnswerIsRelayed: a backend that takes longer than a
// proxy-side timeout would allow still answers the caller. The forward is
// bounded by the request's own deadline, so a slow answer is neither a
// failover nor a breaker strike.
func TestProxySlowAnswerIsRelayed(t *testing.T) {
	p, stubs := newStubCluster(t, 2, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	for _, s := range stubs {
		s.delay.Store(int64(300 * time.Millisecond))
	}

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(analyzeBody))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want the slow backend's 200 relayed", resp.StatusCode)
	}
	if got := p.failovers.Value(); got != 0 {
		t.Fatalf("failovers = %d, want 0", got)
	}
	for _, b := range p.order {
		st, _ := b.snapshotState()
		b.mu.Lock()
		fails := b.fails
		b.mu.Unlock()
		if st != BreakerClosed || fails != 0 {
			t.Fatalf("backend %s: breaker %v with %d fails, want closed with 0", b.Name, st, fails)
		}
	}
}

// TestProxyRelaysAnswerBeforeTransportError: when an earlier candidate
// answers with a retryable status and a later one fails in transport, the
// caller gets the answer, Retry-After included, not a 502 that says no
// backend answered.
func TestProxyRelaysAnswerBeforeTransportError(t *testing.T) {
	p, stubs := newStubCluster(t, 2, nil)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	cands, _ := p.candidates("", false)
	stubByName(stubs, cands[0].Name).status.Store(http.StatusServiceUnavailable)
	stubByName(stubs, cands[1].Name).down.Store(true)

	// Three requests: the down backend's breaker opens on the third
	// transport failure, so each of them still walks both candidates.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/platforms")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("get %d: status %d Retry-After %q, want the first candidate's 503 with Retry-After 1",
				i, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
}
