package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// laneStub is a backend stand-in that counts the connections dialed to
// it, the ones closed, and the requests it sees.
type laneStub struct {
	ts       *httptest.Server
	name     string
	dials    atomic.Int64
	closed   atomic.Int64
	requests atomic.Int64
}

func newLaneStub(t *testing.T, h http.HandlerFunc) *laneStub {
	t.Helper()
	s := &laneStub{}
	s.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		h(w, r)
	}))
	s.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.dials.Add(1)
		case http.StateClosed, http.StateHijacked:
			s.closed.Add(1)
		}
	}
	s.ts.Start()
	s.name = strings.TrimPrefix(s.ts.URL, "http://")
	t.Cleanup(s.ts.Close)
	return s
}

// newLaneProxy fronts the stubs with a proxy that never probes on its own
// and whose breakers stay open for the whole test.
func newLaneProxy(t *testing.T, stubs ...*laneStub) *Proxy {
	t.Helper()
	urls := make([]string, len(stubs))
	for i, s := range stubs {
		urls[i] = s.ts.URL
	}
	p, err := New(Config{Backends: urls, ProbeInterval: -1, BreakerCooldown: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// serve runs one request through the proxy's handler in-process.
func serve(p *Proxy, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, req)
	return rec
}

func idleConns(b *Backend) int {
	b.lane.mu.Lock()
	defer b.lane.mu.Unlock()
	return len(b.lane.idle)
}

func okHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"ok":true}`)
}

// TestLaneReplaysStaleConnection: a backend closes a keep-alive
// connection while it sits in the pool. The next forward finds it dead
// before any response byte, replays once on a fresh dial to the same
// backend, and answers 200 — no breaker strike, no failover.
func TestLaneReplaysStaleConnection(t *testing.T) {
	a, b := newLaneStub(t, okHandler), newLaneStub(t, okHandler)
	p := newLaneProxy(t, a, b)
	cands, _ := p.candidates("", false)
	head := a
	if cands[0].Name == b.name {
		head = b
	}

	if rec := serve(p, http.MethodGet, "/v1/platforms", ""); rec.Code != http.StatusOK {
		t.Fatalf("first forward: %d", rec.Code)
	}
	if n := idleConns(p.backends[head.name]); n != 1 {
		t.Fatalf("%d idle connections after one forward, want 1", n)
	}
	head.ts.CloseClientConnections()
	waitFor(t, func() bool { return head.closed.Load() == 1 })

	if rec := serve(p, http.MethodGet, "/v1/platforms", ""); rec.Code != http.StatusOK {
		t.Fatalf("forward on a stale connection: %d %s", rec.Code, rec.Body)
	}
	if got := head.dials.Load(); got != 2 {
		t.Fatalf("head backend dialed %d times, want 2: the stale reuse replays on a fresh dial", got)
	}
	if got := head.requests.Load(); got != 2 {
		t.Fatalf("head backend saw %d requests, want 2", got)
	}
	other := a
	if head == a {
		other = b
	}
	if got := other.requests.Load(); got != 0 || p.failovers.Value() != 0 {
		t.Fatalf("other backend saw %d requests, failovers %d; want 0 and 0", got, p.failovers.Value())
	}
	hb := p.backends[head.name]
	hb.mu.Lock()
	fails, st := hb.fails, hb.state
	hb.mu.Unlock()
	if fails != 0 || st != BreakerClosed {
		t.Fatalf("breaker %v with %d fails after a stale reuse, want closed with 0", st, fails)
	}
	if got := p.requests.With(head.name, "error").Value(); got != 0 {
		t.Fatalf("error outcomes = %d, want 0", got)
	}
}

// TestLaneReplaysOnlyReusedConnections: a fresh connection's failure is
// the backend's, never replayed; a reused one is replayed exactly once.
func TestLaneReplaysOnlyReusedConnections(t *testing.T) {
	var abort atomic.Bool
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		if abort.Load() {
			panic(http.ErrAbortHandler) // sever the connection, answer nothing
		}
		okHandler(w, r)
	})
	p := newLaneProxy(t, s)

	abort.Store(true)
	if rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody); rec.Code != http.StatusBadGateway {
		t.Fatalf("forward to an aborting backend: %d, want 502", rec.Code)
	}
	if got := s.requests.Load(); got != 1 {
		t.Fatalf("a fresh connection's failure reached the backend %d times, want 1: it must not be replayed", got)
	}

	abort.Store(false)
	if rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
		t.Fatalf("forward: %d", rec.Code)
	}
	abort.Store(true)
	before := s.requests.Load()
	if rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody); rec.Code != http.StatusBadGateway {
		t.Fatalf("forward to an aborting backend: %d, want 502", rec.Code)
	}
	if got := s.requests.Load() - before; got != 2 {
		t.Fatalf("a failing reused connection reached the backend %d times, want 2: one replay, on a fresh dial", got)
	}
}

// TestLaneConnectionCloseAnswer: a connection whose answer said
// "Connection: close" is not pooled, so every forward dials anew.
func TestLaneConnectionCloseAnswer(t *testing.T) {
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		okHandler(w, r)
	})
	p := newLaneProxy(t, s)
	for i := 0; i < 3; i++ {
		rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody)
		if rec.Code != http.StatusOK || rec.Body.String() != `{"ok":true}` {
			t.Fatalf("forward %d: %d %q", i, rec.Code, rec.Body)
		}
		if n := idleConns(p.backends[s.name]); n != 0 {
			t.Fatalf("forward %d: %d idle connections after Connection: close", i, n)
		}
	}
	if got := s.dials.Load(); got != 3 {
		t.Fatalf("%d dials for 3 forwards answered Connection: close, want 3", got)
	}
}

// TestLaneChunkedAnswer: a body sent in chunks, with no Content-Length,
// is relayed whole, and its connection carries the next forward.
func TestLaneChunkedAnswer(t *testing.T) {
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"part":1,`)
		w.(http.Flusher).Flush()
		io.WriteString(w, `"part2":"`+strings.Repeat("y", 5000)+`"}`)
	})
	p := newLaneProxy(t, s)
	want := `{"part":1,"part2":"` + strings.Repeat("y", 5000) + `"}`
	for i := 0; i < 3; i++ {
		rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody)
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("forward %d: %d, body of %d bytes, want %d", i, rec.Code, rec.Body.Len(), len(want))
		}
	}
	if got := s.dials.Load(); got != 1 {
		t.Fatalf("%d dials for 3 chunked forwards, want 1", got)
	}
	if n := idleConns(p.backends[s.name]); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
}

// TestLaneCancelMidResponse: a caller that leaves while the backend is
// part-way through its answer ends the forward at once. The connection is
// closed, not pooled; the outcome is "canceled", not a breaker strike; and
// every goroutine the exchange started ends.
func TestLaneCancelMidResponse(t *testing.T) {
	started := make(chan struct{})
	backendSawClose := make(chan struct{})
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, `{"partial":`)
		w.(http.Flusher).Flush()
		close(started)
		<-r.Context().Done() // the proxy closed its connection
		close(backendSawClose)
	})
	p := newLaneProxy(t, s)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(analyzeBody))
		resp, err := cl.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("the cancelled request succeeded")
	}
	select {
	case <-backendSawClose:
	case <-time.After(5 * time.Second):
		t.Fatal("the proxy kept its connection to the backend open after the caller left")
	}
	waitFor(t, func() bool { return p.requests.With(s.name, "canceled").Value() == 1 })
	if n := idleConns(p.backends[s.name]); n != 0 {
		t.Fatalf("%d idle connections after a cancelled forward, want 0", n)
	}
	b := p.backends[s.name]
	b.mu.Lock()
	fails := b.fails
	b.mu.Unlock()
	if fails != 0 {
		t.Fatalf("a caller's cancel counted %d breaker fails, want 0", fails)
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the request", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLaneCancelAtAnswerEndNeverPoolsSpoiledConnection: a cancel that
// fires as the answer completes sets a past deadline on the connection,
// even when the whole answer was read. Such a connection must not reach
// the pool, where the next forward would find it unusable. The cancel
// lands on either side of the last byte, so the test runs it many times
// and checks every pooled connection each time: a zero-byte write fails
// at once on a connection whose deadline has passed.
func TestLaneCancelAtAnswerEndNeverPoolsSpoiledConnection(t *testing.T) {
	var cancelNow atomic.Pointer[context.CancelFunc]
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		okHandler(w, r)
		w.(http.Flusher).Flush()
		if c := cancelNow.Load(); c != nil {
			(*c)()
		}
	})
	p := newLaneProxy(t, s)
	b := p.backends[s.name]
	x := &exchange{method: http.MethodGet, target: "/v1/platforms"}
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelNow.Store(&cancel)
		b.lane.do(ctx, x, time.Now().Add(time.Minute))
		cancel()
		b.lane.mu.Lock()
		for _, c := range b.lane.idle {
			if _, err := c.Write(nil); err != nil {
				b.lane.mu.Unlock()
				t.Fatalf("round %d: a pooled connection is spoiled: %v", i, err)
			}
		}
		b.lane.mu.Unlock()
	}
}

// TestLaneConcurrentForwardsShareConnections: 8 concurrent forwards, 10
// rounds of them, reach one backend over at most 8 connections — the pool
// keeps every connection the concurrency needs.
func TestLaneConcurrentForwardsShareConnections(t *testing.T) {
	s := newLaneStub(t, okHandler)
	p := newLaneProxy(t, s)
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
					t.Errorf("round %d: %d", round, rec.Code)
				}
			}()
		}
		wg.Wait()
	}
	if got := s.requests.Load(); got != 80 {
		t.Fatalf("backend saw %d requests, want 80", got)
	}
	if got := s.dials.Load(); got > 8 {
		t.Fatalf("80 forwards at concurrency 8 dialed %d connections, want at most 8", got)
	}
}

// TestLaneStreamFlushesPerChunk: a proxied stream relays each event as the
// backend writes it — the second is not written until the subscriber has
// read the first — and its connection is closed, never pooled.
func TestLaneStreamFlushesPerChunk(t *testing.T) {
	next := make(chan struct{})
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"seq":0}`+"\n")
		w.(http.Flusher).Flush()
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
		io.WriteString(w, `{"seq":1}`+"\n")
	})
	p := newLaneProxy(t, s)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/watch/s1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for i, want := range []string{`{"seq":0}`, `{"seq":1}`} {
		select {
		case got := <-lines:
			if got != want {
				t.Fatalf("event %d = %q, want %q", i, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never reached the subscriber: the stream is buffered", i)
		}
		if i == 0 {
			close(next)
		}
	}
	if _, open := <-lines; open {
		t.Fatal("stream relayed more than the backend wrote")
	}
	waitFor(t, func() bool { return s.closed.Load() == 1 })
	if n := idleConns(p.backends[s.name]); n != 0 {
		t.Fatalf("%d idle connections after a stream, want 0: streams are never pooled", n)
	}
}

// TestLaneRequestHeaders pins what each route sends a backend: Host and
// User-Agent always; Content-Length and Content-Type with a unary body;
// a stream's Accept and Content-Type as the caller sent them; nothing else.
func TestLaneRequestHeaders(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]http.Header{}
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.RequestURI()] = r.Header.Clone()
		mu.Unlock()
		if strings.HasPrefix(r.URL.Path, "/v1/watch") {
			w.Header().Set("Content-Type", "application/x-ndjson")
			return
		}
		okHandler(w, r)
	})
	p := newLaneProxy(t, s)

	serve(p, http.MethodPost, "/v1/analyze", analyzeBody)
	serve(p, http.MethodGet, "/v1/tables/IV?scale=0.05", "")
	req := httptest.NewRequest(http.MethodGet, "/v1/watch/s%201", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	req.Header.Set("X-Other", "not forwarded")
	p.Handler().ServeHTTP(httptest.NewRecorder(), req)
	serve(p, http.MethodPost, "/v1/faults", `{"enabled":false}`)
	p.ProbeAll(context.Background())

	ua := "Go-http-client/1.1"
	for key, want := range map[string]http.Header{
		"POST /v1/analyze": {"User-Agent": {ua}, "Content-Length": {fmt.Sprint(len(analyzeBody))},
			"Content-Type": {"application/json"}},
		"GET /v1/tables/IV?scale=0.05": {"User-Agent": {ua}},
		"GET /v1/watch/s%201":          {"User-Agent": {ua}, "Accept": {"application/x-ndjson"}},
		"POST /v1/faults": {"User-Agent": {ua}, "Content-Length": {"17"},
			"Content-Type": {"application/json"}},
		"GET /healthz": {"User-Agent": {ua}},
	} {
		mu.Lock()
		got, ok := seen[key]
		mu.Unlock()
		if !ok {
			t.Errorf("%s never reached the backend (saw %v)", key, seen)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s sent %v, want %v", key, got, want)
		}
	}
}

// TestProxyBackendsAreHTTPOnly: the lane speaks plain HTTP/1.1, so New
// refuses any other scheme instead of failing at the first forward.
func TestProxyBackendsAreHTTPOnly(t *testing.T) {
	for _, raw := range []string{"https://h:1", "unix://h:1", "ftp://h:1"} {
		if _, err := New(Config{Backends: []string{raw}}); err == nil || !strings.Contains(err.Error(), "only http://") {
			t.Errorf("New(%s) error = %v, want the http:// only refusal", raw, err)
		}
	}
}

// TestProxyCloseClosesIdleConnections: Close shuts every pooled connection,
// and a forward after it still works but pools nothing.
func TestProxyCloseClosesIdleConnections(t *testing.T) {
	s := newLaneStub(t, okHandler)
	p := newLaneProxy(t, s)
	serve(p, http.MethodPost, "/v1/analyze", analyzeBody)
	if n := idleConns(p.backends[s.name]); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
	p.Close()
	waitFor(t, func() bool { return s.closed.Load() == 1 })
	if rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
		t.Fatalf("forward after Close: %d", rec.Code)
	}
	if n := idleConns(p.backends[s.name]); n != 0 {
		t.Fatalf("%d idle connections after Close, want 0", n)
	}
}

// TestLaneKeepsBackendPathPrefix: a backend URL with a path prefixes every
// path the proxy sends it — forwards, streams and probes alike.
func TestLaneKeepsBackendPathPrefix(t *testing.T) {
	var mu sync.Mutex
	var got []string
	s := newLaneStub(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.URL.RequestURI())
		mu.Unlock()
		okHandler(w, r)
	})
	p, err := New(Config{Backends: []string{s.ts.URL + "/base/"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	serve(p, http.MethodGet, "/v1/tables/IV?scale=0.05", "")
	serve(p, http.MethodGet, "/v1/watch/s1", "")
	p.ProbeAll(context.Background())
	want := []string{"/base/v1/tables/IV?scale=0.05", "/base/v1/watch/s1", "/base/healthz"}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("backend saw %v, want %v", got, want)
	}
}

// TestLaneHeadAnswer: GET routes also match HEAD. The backend's answer to
// a HEAD declares the Content-Length of the body it would send and sends
// none; the lane reads it as an empty body, so the HEAD gets 200 from the
// first backend — no breaker strike, no failover — and its connection
// carries the next request.
func TestLaneHeadAnswer(t *testing.T) {
	s := newLaneStub(t, okHandler)
	other := newLaneStub(t, okHandler)
	p := newLaneProxy(t, s, other)
	cands, _ := p.candidates("", false)
	head, spare := s, other
	if cands[0].Name == other.name {
		head, spare = other, s
	}
	for i := 0; i < breakerFailures+1; i++ {
		rec := serve(p, http.MethodHead, "/v1/platforms", "")
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
			t.Fatalf("HEAD %d: %d %q, want 200 with no body", i, rec.Code, rec.Body)
		}
	}
	// The backend does declare a length, so the empty-body rule is what
	// the test exercises.
	c, err := net.Dial("tcp", head.name)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "HEAD /v1/platforms HTTP/1.1\r\nHost: %s\r\n\r\n", head.name)
	resp, err := http.ReadResponse(bufio.NewReader(c), &http.Request{Method: http.MethodHead})
	if err != nil {
		t.Fatal(err)
	}
	if v := resp.Header.Get("Content-Length"); v == "" || v == "0" {
		t.Fatalf("backend's HEAD answer declares Content-Length %q; the test needs a positive one", v)
	}

	hb := p.backends[head.name]
	hb.mu.Lock()
	fails, st := hb.fails, hb.state
	hb.mu.Unlock()
	if fails != 0 || st != BreakerClosed {
		t.Fatalf("breaker %v with %d fails after HEADs, want closed with 0", st, fails)
	}
	if got := spare.requests.Load(); got != 0 || p.failovers.Value() != 0 {
		t.Fatalf("spare backend saw %d requests, failovers %d; want 0 and 0", got, p.failovers.Value())
	}
	if got := head.dials.Load(); got != 2 { // the lane's one connection and the test's own
		t.Fatalf("%d connections to the backend, want 2: the lane's HEADs share one", got)
	}
}

// TestLaneClosesConnectionsIdleTooLong: a pooled connection idle past
// laneIdleTimeout is closed on the next take instead of being reused.
func TestLaneClosesConnectionsIdleTooLong(t *testing.T) {
	s := newLaneStub(t, okHandler)
	p := newLaneProxy(t, s)
	b := p.backends[s.name]
	serve(p, http.MethodPost, "/v1/analyze", analyzeBody)
	serve(p, http.MethodPost, "/v1/analyze", analyzeBody)
	if got := s.dials.Load(); got != 1 {
		t.Fatalf("%d dials for 2 forwards in a row, want 1", got)
	}
	b.lane.mu.Lock()
	b.lane.idle[0].since = time.Now().Add(-laneIdleTimeout - time.Second)
	b.lane.mu.Unlock()
	if rec := serve(p, http.MethodPost, "/v1/analyze", analyzeBody); rec.Code != http.StatusOK {
		t.Fatalf("forward: %d", rec.Code)
	}
	if got := s.dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2: the connection idle too long is not reused", got)
	}
	waitFor(t, func() bool { return s.closed.Load() == 1 })
	if n := idleConns(b); n != 1 {
		t.Fatalf("%d idle connections, want 1", n)
	}
}
