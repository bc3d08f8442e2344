package service

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDrainAndShutdown runs Serve, the listener's life both mains share, on
// a real listener and cancels it: a request in flight when the drain
// begins finishes inside the drain window while new work sheds 503, and
// then Serve returns nil and the listener is closed.
func TestDrainAndShutdown(t *testing.T) {
	env := NewEnvelope("server", 0, 0)
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/slow", env.Wrap("slow", func(w http.ResponseWriter, r *http.Request) error {
		close(entered)
		<-release
		w.WriteHeader(http.StatusNoContent)
		return nil
	}))
	mux.Handle("/fast", env.Wrap("fast", func(w http.ResponseWriter, r *http.Request) error {
		w.WriteHeader(http.StatusNoContent)
		return nil
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- env.Serve(ctx, ln, mux, 10*time.Second, 10*time.Second, t.Logf) }()
	base := "http://" + ln.Addr().String()
	cl := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

	slow := make(chan int, 1)
	go func() {
		resp, err := cl.Get(base + "/slow")
		if err != nil {
			slow <- -1
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	<-entered

	cancel()
	for !env.Draining() {
		time.Sleep(time.Millisecond)
	}
	// The listener is still open while the slow request runs, and new work
	// is refused.
	resp, err := cl.Get(base + "/fast")
	if err != nil {
		t.Fatalf("listener closed while a request was still in flight: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain = %d, want 503", resp.StatusCode)
	}

	close(release)
	if code := <-slow; code != http.StatusNoContent {
		t.Fatalf("in-flight request finished %d, want 204", code)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("listener still accepts after Serve returned")
	}
	if n := env.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after shutdown, want 0", n)
	}
}
