package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
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

func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"table_III.txt", []string{"-table", "III"}},
		{"table_IV_SKL.csv", []string{"-table", "IV", "-scale", "0.005", "-platform", "SKL", "-csv"}},
		{"tma_critique_SKL.txt", []string{"-experiment", "tma-critique", "-scale", "0.01", "-platform", "SKL"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			got, err := runArgs(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("paperbench %s:\n got:\n%s\nwant:\n%s", strings.Join(tc.args, " "), got, want)
			}
		})
	}
}

func TestErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "3"}, `unknown figure "3"`},
		{[]string{"-experiment", "nope"}, `unknown experiment "nope"`},
		{[]string{"-ablation", "nope"}, `unknown ablation "nope"`},
		{[]string{"-table", "XII"}, "XII"},
		// A scale no other test runs, so no cached run answers before the
		// deadline is checked.
		{[]string{"-table", "IV", "-scale", "0.004", "-platform", "SKL", "-timeout", "1ns"}, "deadline exceeded"},
	} {
		if _, err := runArgs(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("paperbench %s: err %v, want it to mention %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
	if _, err := runArgs(t, "-bogus"); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: err %v, want errUsage", err)
	}
	if _, err := runArgs(t, "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err %v, want flag.ErrHelp", err)
	}
	if out, err := runArgs(t, "-version"); err != nil || !strings.HasPrefix(out, "paperbench ") {
		t.Errorf("-version: %q, %v", out, err)
	}
}
