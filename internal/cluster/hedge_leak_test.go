package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strings"
	"sync"
	"testing"
	"time"

	"littleslaw/internal/faults"
)

// connTracker records every connection's latest http.ConnState so a test
// can assert none is stranded mid-response.
type connTracker struct {
	mu    sync.Mutex
	state map[net.Conn]http.ConnState
}

func (c *connTracker) hook(conn net.Conn, s http.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == nil {
		c.state = map[net.Conn]http.ConnState{}
	}
	c.state[conn] = s
}

// active counts connections currently in StateActive — a request being
// processed or a response not yet fully consumed by the client.
func (c *connTracker) active() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.state {
		if s == http.StateActive {
			n++
		}
	}
	return n
}

// TestHedgedLoserConnectionsNotLeaked: when a hedged GET resolves, the
// losing lane's response body must be drained and closed (or its request
// canceled outright) so the connection leaves StateActive. A leak here
// strands one backend connection per hedged request — invisible in a quick
// test, fatal under sustained load. The forwarding client guarantees it by
// reading every body to EOF under a deferred Close; this pins that contract
// with ConnState hooks on both backends.
func TestHedgedLoserConnectionsNotLeaked(t *testing.T) {
	stubs := make([]*stubBackend, 2)
	trackers := make([]*connTracker, 2)
	urls := make([]string, 2)
	for i := range stubs {
		s := &stubBackend{}
		tr := &connTracker{}
		s.ts = httptest.NewUnstartedServer(http.HandlerFunc(s.handler))
		s.ts.Config.ConnState = tr.hook
		s.ts.Start()
		s.name = strings.TrimPrefix(s.ts.URL, "http://")
		t.Cleanup(s.ts.Close)
		stubs[i], trackers[i], urls[i] = s, tr, s.ts.URL
	}
	inj, err := faults.New(1)
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	p, err := New(Config{
		Backends:        urls,
		ProbeInterval:   -1,
		HedgeDelay:      30 * time.Millisecond,
		ClientTimeout:   5 * time.Second,
		BreakerFailures: 3,
		BreakerCooldown: time.Minute,
		FaultInjector:   inj,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(p.Close)

	slow, fast := stubs[0], stubs[1]
	slow.delay.Store(int64(300 * time.Millisecond))
	// Tip the load order so the slow backend is the primary.
	p.backends[fast.name].arrive(time.Now())

	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/platforms")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if _, err := httputil.DumpResponse(resp, true); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get %d: status %d", i, resp.StatusCode)
		}
	}
	if slow.hits.Load() == 0 || fast.hits.Load() == 0 {
		t.Fatalf("hits slow=%d fast=%d, want both backends raced", slow.hits.Load(), fast.hits.Load())
	}
	if p.hedges.Value() == 0 {
		t.Fatal("no hedges fired; test did not exercise the loser path")
	}

	// Every loser lane must leave StateActive: drained to idle, or closed
	// by the cancel. Allow the slow handlers time to unwind.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if trackers[0].active() == 0 && trackers[1].active() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stranded connections: slow backend %d active, fast backend %d active — a hedge loser's body was not drained/closed",
				trackers[0].active(), trackers[1].active())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
