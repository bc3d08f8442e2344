package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs drives run in-process and returns what it wrote to stdout.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestGoldenStdout(t *testing.T) {
	profile := filepath.Join("testdata", "skl_probes20.json")
	for _, tc := range []struct {
		golden string
		extra  []string
	}{
		{"isx_skl.txt", nil},
		{"isx_skl_explain.txt", []string{"-explain"}},
		{"isx_skl_classify.txt", []string{"-classify"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			args := append([]string{"-platform", "SKL", "-workload", "ISx", "-scale", "0.01", "-profile", profile}, tc.extra...)
			got, err := runArgs(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", tc.golden), []byte(got))
		})
	}
}

func TestProfile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "skl.json")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"profile", "-platform", "SKL", "-probes", "20", "-o", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "skl_probes20.json"), got)
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "wrote "+out) {
		t.Errorf("profile -o: stdout %q, stderr %q", stdout.String(), stderr.String())
	}

	csv, err := runArgs(t, "profile", "-platform", "SKL", "-probes", "20")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "# SKL bandwidth→latency profile") || lines[1] != "bandwidth_gbs,latency_ns" ||
		len(lines) != 2+strings.Count(string(got), "BandwidthGBs") {
		t.Errorf("profile stdout:\n%s", csv)
	}
}

// TestTrace records a 1000-op ISx trace, then reads it back with info and
// analyze; the trace and both reports match the goldens. The trace is named
// by a relative path because analyze reports under it.
func TestTrace(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	if _, err := runArgs(t, "trace", "record", "-platform", "SKL", "-workload", "ISx", "-o", "isx.trace", "-ops", "1000"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("isx.trace")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join(testdata, "isx.trace"), got)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"trace_info.txt", []string{"trace", "info", "isx.trace"}},
		{"trace_analyze.txt", []string{"trace", "analyze", "-platform", "SKL", "isx.trace"}},
	} {
		got, err := runArgs(t, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		checkGolden(t, filepath.Join(testdata, tc.golden), []byte(got))
	}
}

// TestCorruptTrace: a record that fails to read fails info and analyze with
// the file's name and the tracefile error, instead of ending the trace
// early.
func TestCorruptTrace(t *testing.T) {
	clean, err := os.ReadFile(filepath.Join("testdata", "isx.trace"))
	if err != nil {
		t.Fatal(err)
	}
	const header, record = 16, 14
	badKind := bytes.Clone(clean)
	badKind[header+10*record] = 9
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"cut.trace", "tracefile: truncated record", clean[:1000]},
		{"kind.trace", "tracefile: invalid op kind 9", badKind},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sub := range []string{"info", "analyze"} {
			out, err := runArgs(t, "trace", sub, path)
			if err == nil {
				t.Errorf("trace %s %s: no error; stdout:\n%s", sub, tc.name, out)
				continue
			}
			if inner := errors.Unwrap(err); inner == nil || !strings.HasPrefix(inner.Error(), tc.want) ||
				!strings.HasPrefix(err.Error(), path+": ") {
				t.Errorf("trace %s %s: err %q, want %s: %s…", sub, tc.name, err, path, tc.want)
			}
		}
	}
	if _, err := runArgs(t, "trace", "info", filepath.Join(dir, "cut.trace")); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated trace: err %v does not wrap io.ErrUnexpectedEOF", err)
	}
}

func TestErrors(t *testing.T) {
	profile := filepath.Join("testdata", "skl_probes20.json")
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "P4"}, "P4"},
		{[]string{"-workload", "nope"}, `unknown workload "nope" (want one of ISx,`},
		{[]string{"-platform", "KNL", "-profile", profile}, "profile is for SKL, not KNL"},
		{[]string{"-profile", missing}, missing},
		{[]string{"profile", "-platform", "P4"}, "P4"},
		{[]string{"trace"}, "usage: mlptool trace record|info|analyze"},
		{[]string{"trace", "replay"}, `unknown trace subcommand "replay"`},
		{[]string{"trace", "record"}, "-o is required"},
		{[]string{"trace", "record", "-workload", "nope", "-o", missing}, `unknown workload "nope"`},
		{[]string{"trace", "info"}, "one trace file expected"},
		{[]string{"trace", "analyze", "-platform", "P4", missing}, "P4"},
		{[]string{"trace", "analyze", missing}, missing},
	} {
		if _, err := runArgs(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mlptool %s: err %v, want it to mention %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
	for _, args := range [][]string{{"-bogus"}, {"profile", "-version"}, {"trace", "info", "-bogus"}} {
		if _, err := runArgs(t, args...); !errors.Is(err, errUsage) {
			t.Errorf("mlptool %s: err %v, want errUsage", strings.Join(args, " "), err)
		}
	}
	if _, err := runArgs(t, "trace", "analyze", "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err %v, want flag.ErrHelp", err)
	}
	if out, err := runArgs(t, "-version"); err != nil || !strings.HasPrefix(out, "mlptool ") {
		t.Errorf("-version: %q, %v", out, err)
	}
}
