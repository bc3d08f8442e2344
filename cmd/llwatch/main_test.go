package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"littleslaw/internal/cli"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this build")

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err %v, want flag.ErrHelp", err)
	}
	checkGolden(t, "usage.golden", stderr.String())
}

func TestFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &stdout, &stderr); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("unknown flag: err %v, want cli.ErrUsage", err)
	}
	stdout.Reset()
	if err := run(context.Background(), []string{"-version"}, &stdout, &stderr); err != nil || !strings.HasPrefix(stdout.String(), "llwatch ") {
		t.Errorf("-version: %q, %v", stdout.String(), err)
	}
}

// TestLocal runs the monitor over a committed two-phase samples file.
func TestLocal(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-platform", "SKL", "-f", filepath.Join("testdata", "samples.ndjson"), "-window", "4"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	checkGolden(t, "local.golden", stdout.String())
}

// TestLocalWindowFlags reruns the samples file with its timestamps
// stripped, so -period spaces the samples; -stride 1 slides each window by
// one sample, and -cores 12 (half the node) doubles each core's share of
// the bandwidth and with it n_avg.
func TestLocalWindowFlags(t *testing.T) {
	timed, err := os.ReadFile(filepath.Join("testdata", "samples.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	untimed := filepath.Join(t.TempDir(), "untimed.ndjson")
	if err := os.WriteFile(untimed, regexp.MustCompile(`"t_s": [0-9.]+, `).ReplaceAll(timed, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err = run(context.Background(), []string{"-platform", "SKL", "-f", untimed, "-window", "4",
		"-period", "0.5", "-stride", "1", "-cores", "12"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	checkGolden(t, "local_flags.golden", stdout.String())
}

// TestRemote tails a server that replays the stream monitor's recorded
// two-phase event stream at /v1/watch/x.
func TestRemote(t *testing.T) {
	events, err := os.ReadFile(filepath.Join("..", "..", "internal", "stream", "testdata", "two_phase_events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/watch/x" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(events)
	}))
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-url", ts.URL, "-stream", "x"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	checkGolden(t, "remote.golden", stdout.String())
}
