package service

import (
	"errors"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDrainAndShutdown runs the SIGTERM path both mains share on a real
// listener: a request in flight when the drain begins finishes inside the
// drain window while new work sheds 503, and then Shutdown returns and the
// listener closes.
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
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
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

	done := make(chan error, 1)
	go func() { done <- env.DrainAndShutdown(hs, 10*time.Second, 10*time.Second, t.Logf) }()
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
			t.Fatalf("DrainAndShutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DrainAndShutdown did not return")
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if n := env.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after shutdown, want 0", n)
	}
}
