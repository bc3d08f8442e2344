// Package cli is what every binary in the module shares: one version
// string derived from the metadata the Go linker already embeds (so the
// tools agree on what they are without a stamping step in the build), one
// -version banner, one way to parse a command line, and one mapping from a
// run's error to the process's exit code.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// ErrUsage marks a command line the flag package rejected; it has already
// printed why, with the usage.
var ErrUsage = errors.New("usage")

// Parse parses args into fs, with usage and parse errors on stderr, turning
// a rejected command line into ErrUsage (flag.ErrHelp, for -h, passes
// through).
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return ErrUsage
	}
	return err
}

// Exit ends a binary with the exit code for its run's error: it returns
// (exit 0) on nil or flag.ErrHelp, exits 2 on ErrUsage, and otherwise
// prints "tool: err" on stderr and exits 1.
func Exit(tool string, err error) {
	if code := exitCode(err); code != 0 {
		if code == 1 {
			fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		}
		os.Exit(code)
	}
}

func exitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	default:
		return 1
	}
}

// Version returns the best identity the build metadata offers: the module
// version when built from a tagged release, else the VCS revision (with a
// -dirty suffix when the tree was modified), else "devel".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// Print writes the one-line -version banner every tool shares.
func Print(w io.Writer, tool string) {
	fmt.Fprintf(w, "%s %s %s %s/%s\n", tool, Version(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
