package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"littleslaw/internal/cli"
)

var update = flag.Bool("update", false, "rewrite testdata/usage.golden from this build")

// workersDefault matches the -workers default, the machine's GOMAXPROCS,
// so the usage golden does not depend on the machine.
var workersDefault = regexp.MustCompile(`(?m)^(  -workers int\n.*\(default )\d+\)`)

func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err %v, want flag.ErrHelp", err)
	}
	got := workersDefault.ReplaceAllString(stderr.String(), "${1}GOMAXPROCS)")
	path := filepath.Join("testdata", "usage.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("llserved -h:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &stdout, &stderr); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("unknown flag: err %v, want cli.ErrUsage", err)
	}
	stdout.Reset()
	if err := run(context.Background(), []string{"-version"}, &stdout, &stderr); err != nil || !strings.HasPrefix(stdout.String(), "llserved ") {
		t.Errorf("-version: %q, %v", stdout.String(), err)
	}
}

// TestServeAndDrain boots llserved on an ephemeral port, checks that it
// answers /healthz, and cancels its context: run must take the drain path
// and return nil with "bye" as its last log line.
func TestServeAndDrain(t *testing.T) {
	addr, stop := serve(t, "-addr", "127.0.0.1:0", "-paper-profiles", "-drain-timeout", "1s", "-shutdown-grace", "5s")
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	log, err := stop()
	if err != nil {
		t.Fatalf("run after cancel: %v\n%s", err, log)
	}
	if !strings.HasSuffix(log, "bye\n") {
		t.Fatalf("log does not end in bye:\n%s", log)
	}
}

// serve starts run with args and returns the address from its "listening
// on" line, and stop, which cancels run's context and returns its whole
// log and its error.
func serve(t *testing.T, args ...string) (addr string, stop func() (string, error)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		err := run(ctx, args, io.Discard, pw)
		pw.Close()
		errc <- err
	}()
	t.Cleanup(func() {
		cancel()
		io.Copy(io.Discard, pr)
	})
	var log strings.Builder
	sc := bufio.NewScanner(pr)
	for addr == "" && sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if _, after, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = strings.TrimSuffix(strings.Fields(after)[0], ",")
		}
	}
	if addr == "" {
		t.Fatalf("no listening line; run: %v\n%s", <-errc, log.String())
	}
	return addr, func() (string, error) {
		cancel()
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
		}
		return log.String(), <-errc
	}
}
