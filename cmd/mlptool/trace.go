package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"littleslaw/internal/access"
	"littleslaw/internal/core"
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
	"littleslaw/internal/tracefile"
)

func runTrace(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: mlptool trace record|info|analyze ...")
	}
	switch args[0] {
	case "record":
		return traceRecord(args[1:], stderr)
	case "info":
		return traceInfo(args[1:], stdout, stderr)
	case "analyze":
		return traceAnalyze(ctx, args[1:], stdout, stderr)
	}
	return fmt.Errorf("unknown trace subcommand %q", args[0])
}

func traceRecord(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("mlptool trace record", flag.ContinueOnError)
	platName := fs.String("platform", "SKL", "platform the trace's line size comes from")
	workName := fs.String("workload", "ISx", "workload to record")
	out := fs.String("o", "", "output trace file (required)")
	ops := fs.Int("ops", 0, "record at most this many operations (0 = whole stream)")
	scale := fs.Float64("scale", 0.2, "workload scale")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o is required")
	}
	p, w, err := lookup(*platName, *workName)
	if err != nil {
		return err
	}
	var n int
	err = writeFile(*out, func(f io.Writer) error {
		tw, err := tracefile.NewWriter(f, tracefile.Header{LineBytes: p.LineBytes})
		if err != nil {
			return err
		}
		n, err = tracefile.Record(tw, w.Config(p, 1, *scale).NewGen(0, 0), *ops)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mlptool: wrote %d operations to %s\n", n, *out)
	return nil
}

func traceInfo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mlptool trace info", flag.ContinueOnError)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info: one trace file expected")
	}
	h, prof, kinds, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	// A trace holds demand operations and software prefetches only: the
	// reader rejects any other kind.
	fmt.Fprintf(stdout, "line size:  %d B\n", h.LineBytes)
	fmt.Fprintf(stdout, "operations: %d loads, %d stores, %d prefetches\n",
		kinds[memsys.Load], kinds[memsys.Store], kinds[memsys.PrefetchL2]+kinds[memsys.PrefetchL1])
	fmt.Fprintf(stdout, "pattern:    %s\n", prof)
	fmt.Fprintf(stdout, "recipe view: random-access=%v, tiling signal=%v\n", prof.RandomAccess(), prof.TilingSignal())
	return nil
}

func traceAnalyze(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mlptool trace analyze", flag.ContinueOnError)
	platName := fs.String("platform", "SKL", "platform to replay on")
	cores := fs.Int("cores", 0, "cores replaying the trace (0 = full node)")
	window := fs.Int("window", 8, "per-thread demand window")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze: one trace file expected")
	}
	path := fs.Arg(0)
	p, err := platform.ByName(*platName)
	if err != nil {
		return err
	}

	// Classify first (for the recipe's pattern input).
	_, prof, _, err := readTrace(path)
	if err != nil {
		return err
	}
	curve, err := loadCurve(ctx, p, "", stderr)
	if err != nil {
		return err
	}

	// Every core replays its own copy of the trace. The simulator builds
	// the generators one at a time, before it runs any of them.
	var files []*os.File
	var replays []*tracefile.Generator
	var openErr error
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	fmt.Fprintf(stderr, "mlptool: replaying %s on every core of the %s node...\n", path, p.Name)
	_, rep, err := measure(ctx, p, curve, sim.Config{
		Plat:   p,
		Cores:  *cores,
		Window: *window,
		NewGen: func(coreID, threadID int) cpu.Generator {
			r, f, err := openTrace(path)
			if err != nil {
				openErr = err
				return cpu.GeneratorFunc(func() (cpu.Op, bool) { return cpu.Op{}, false })
			}
			files = append(files, f)
			g := tracefile.NewGenerator(r)
			replays = append(replays, g)
			// A per-core address arena, so the copies share no lines.
			offset := uint64(coreID+1) << 40
			return cpu.GeneratorFunc(func() (cpu.Op, bool) {
				op, ok := g.Next()
				op.Addr += offset
				return op, ok
			})
		},
	}, core.Measurement{Routine: path, RandomAccess: prof.RandomAccess()})
	if openErr != nil {
		return openErr
	}
	for _, g := range replays {
		if g.Err() != nil {
			return fmt.Errorf("%s: %w", path, g.Err())
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pattern: %s\n\n", prof)
	fmt.Fprintln(stdout, core.Explain(rep))
	return nil
}

// openTrace opens the trace at path and reads its header.
func openTrace(path string) (*tracefile.Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := tracefile.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, f, nil
}

// readTrace reads the whole trace at path through classify. A record that
// fails to read is an error, not the end of the trace.
func readTrace(path string) (tracefile.Header, access.Profile, map[memsys.Kind]int, error) {
	r, f, err := openTrace(path)
	if err != nil {
		return tracefile.Header{}, access.Profile{}, nil, err
	}
	defer f.Close()
	g := tracefile.NewGenerator(r)
	prof, kinds, err := classify(g, r.Header.LineBytes, 0)
	if err == nil && g.Err() != nil {
		err = fmt.Errorf("%s: %w", path, g.Err())
	}
	return r.Header, prof, kinds, err
}
