package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("empty version")
	}
}

func TestPrintBanner(t *testing.T) {
	var sb strings.Builder
	Print(&sb, "lltool")
	out := sb.String()
	if !strings.HasPrefix(out, "lltool ") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("banner = %q", out)
	}
	if fields := strings.Fields(out); len(fields) != 4 {
		t.Fatalf("banner has %d fields, want 4: %q", len(fields), out)
	}
}

func TestParseAndExitCode(t *testing.T) {
	fs := flag.NewFlagSet("lltool", flag.ContinueOnError)
	fs.Int("n", 0, "a number")
	for _, tc := range []struct {
		args []string
		want error
		code int
	}{
		{[]string{"-n", "3"}, nil, 0},
		{[]string{"-h"}, flag.ErrHelp, 0},
		{[]string{"-bogus"}, ErrUsage, 2},
		{[]string{"-n", "x"}, ErrUsage, 2},
	} {
		err := Parse(fs, tc.args, io.Discard)
		if !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
			t.Errorf("Parse(%q) = %v, want %v", tc.args, err, tc.want)
		}
		if got := exitCode(err); got != tc.code {
			t.Errorf("exit code for %q = %d, want %d", tc.args, got, tc.code)
		}
	}
	if got := exitCode(fmt.Errorf("run: %w", errors.New("boom"))); got != 1 {
		t.Errorf("exit code for a run error = %d, want 1", got)
	}
}
