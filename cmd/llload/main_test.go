package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"littleslaw/internal/cli"
	"littleslaw/internal/experiments"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/service"
)

var update = flag.Bool("update", false, "rewrite testdata/usage.golden from this build")

func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err %v, want flag.ErrHelp", err)
	}
	got := stderr.String()
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
		t.Errorf("llload -h:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &stdout, &stderr); !errors.Is(err, cli.ErrUsage) {
		t.Errorf("unknown flag: err %v, want cli.ErrUsage", err)
	}
	stdout.Reset()
	if err := run(context.Background(), []string{"-version"}, &stdout, &stderr); err != nil || !strings.HasPrefix(stdout.String(), "llload ") {
		t.Errorf("-version: %q, %v", stdout.String(), err)
	}
}

// TestFixedCount drives an in-process llserved with 20 seeded arrivals from
// two closed-loop clients and pins the banner and the tally; latencies are
// the machine's and are not pinned.
func TestFixedCount(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{
		ProfileFor: func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return experiments.PaperProfileFor(p)
		},
	}).Handler())
	defer ts.Close()
	url := ts.URL + "/v1/analyze"
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{
		"-url", url, "-body", `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`,
		"-n", "20", "-c", "2", "-seed", "7",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	lines := strings.Split(stdout.String(), "\n")
	if want := "llload: POST " + url + "  mode=closed clients=2 duration=5s retries=0 seed=7"; lines[0] != want {
		t.Errorf("banner:\n got %q\nwant %q", lines[0], want)
	}
	if want := "llload: sent 20  ok 20  shed 0  failed 0  "; len(lines) < 2 || !strings.HasPrefix(lines[1], want) {
		t.Errorf("tally:\n got %q\nwant prefix %q", stdout.String(), want)
	}
}
