// Command mlptool is the paper's method as a tool. Bare, it profiles a
// routine on a simulated platform, computes the Little's-Law MLP /
// MSHR-occupancy metric, narrates the Figure-1 recipe, and lists the
// verdict for every optimization the recipe rules on. Its subcommands
// supply the method's other inputs: the once-per-platform X-Mem
// bandwidth→latency profile (footnote 2), and memory-operation traces that
// decouple the analysis from the bundled workload models.
//
// Usage:
//
//	mlptool -platform KNL -workload ISx
//	mlptool -platform KNL -workload ISx -vect -threads 2
//	mlptool -platform SKL -workload MiniGhost -tiled
//	mlptool -platform SKL -workload SNAP -explain       # recipe narration only
//	mlptool -profile prof.json ...                      # reuse a saved X-Mem profile
//	mlptool -autotune -workers 8 -timeout 5m ...        # concurrent candidate evaluation
//
//	mlptool profile -platform SKL                       # print the profile
//	mlptool profile -platform KNL -o knl.json           # save it for -profile
//	mlptool profile -platform A64FX -probes 500 -plot   # higher-precision sweep, as a chart
//
//	mlptool trace record  -platform SKL -workload ISx -o isx.trace [-ops 50000]
//	mlptool trace info    isx.trace
//	mlptool trace analyze -platform SKL isx.trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"littleslaw/internal/access"
	"littleslaw/internal/autotune"
	"littleslaw/internal/cli"
	"littleslaw/internal/core"
	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/sim"
	"littleslaw/internal/textplot"
	"littleslaw/internal/workloads"
	"littleslaw/internal/xmem"
)

func main() {
	cli.Exit("mlptool", run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "profile":
			return runProfile(ctx, args[1:], stdout, stderr)
		case "trace":
			return runTrace(ctx, args[1:], stdout, stderr)
		}
	}
	return runAnalyze(ctx, args, stdout, stderr)
}

func runAnalyze(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mlptool", flag.ContinueOnError)
	platName := fs.String("platform", "SKL", "platform: SKL, KNL or A64FX")
	workName := fs.String("workload", "ISx", "workload: ISx, HPCG, PENNANT, CoMD, MiniGhost or SNAP")
	threads := fs.Int("threads", 1, "hardware threads per core (SMT)")
	vect := fs.Bool("vect", false, "vectorized variant")
	tiled := fs.Bool("tiled", false, "loop-tiled variant")
	pref := fs.Bool("l2pref", false, "L2 software-prefetch variant")
	nofuse := fs.Bool("nofuse", false, "loop fusion disabled")
	scale := fs.Float64("scale", 0.3, "work scale factor")
	profilePath := fs.String("profile", "", "bandwidth-latency profile JSON (default: characterize now)")
	explainOnly := fs.Bool("explain", false, "print only the recipe narration")
	tune := fs.Bool("autotune", false, "run the Figure-1 loop to a fixed point instead of a single analysis")
	classifyPattern := fs.Bool("classify", false, "derive the random-vs-streaming classification from the access stream instead of the workload's own flag")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "max concurrent simulations for -autotune and characterization (1 = serial; results are identical)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none)")
	version := fs.Bool("version", false, "print version and exit")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *version {
		cli.Print(stdout, "mlptool")
		return nil
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	p, w, err := lookup(*platName, *workName)
	if err != nil {
		return err
	}
	w = w.WithVariant(workloads.Variant{
		Vectorized:   *vect,
		Tiled:        *tiled,
		SWPrefetchL2: *pref,
		NoFuse:       *nofuse,
	})
	curve, err := loadCurve(ctx, p, *profilePath, stderr)
	if err != nil {
		return err
	}

	if *tune {
		fmt.Fprintf(stderr, "mlptool: autotuning %s on %s (the Figure-1 loop)...\n", w.Name(), p.Name)
		res, err := autotune.TuneContext(ctx, p, curve, w, autotune.Options{Scale: *scale, UserIntuition: true, Workers: *workers})
		if err != nil {
			return err
		}
		for i, s := range res.Steps {
			verdict := "rejected"
			if s.Accepted {
				verdict = "ACCEPTED"
			}
			fmt.Fprintf(stdout, "step %d: n_avg %.2f of %d %s MSHRs → try %s → %.2fx (%s)\n",
				i+1, s.Report.Occupancy, s.Report.LimiterCapacity, s.Report.Limiter,
				s.Tried, s.Speedup, verdict)
		}
		fmt.Fprintf(stdout, "\nfinal: %s with %d thread(s)/core — %.2fx over base\n",
			res.FinalVariant.Label(res.FinalThreads), res.FinalThreads, res.TotalSpeedup)
		fmt.Fprintln(stdout, core.Explain(res.FinalReport))
		return nil
	}

	random, pattern := w.RandomAccess(), ""
	if *classifyPattern {
		prof, _, err := classify(w.Config(p, 1, *scale).NewGen(0, 0), p.LineBytes, 20000)
		if err != nil {
			return err
		}
		random, pattern = prof.RandomAccess(), fmt.Sprintf("pattern: %s\n", prof)
	}

	fmt.Fprintf(stderr, "mlptool: running %s/%s (%s) on the %d-core node...\n",
		w.Name(), w.Routine(), w.Variant().Label(*threads), p.Cores)
	res, rep, err := measure(ctx, p, curve, w.Config(p, *threads, *scale), core.Measurement{
		Routine:        w.Routine(),
		ThreadsPerCore: *threads,
		RandomAccess:   random,
	})
	if err != nil {
		return err
	}

	fmt.Fprint(stdout, pattern)
	fmt.Fprintln(stdout, core.Explain(rep))
	if *explainOnly {
		return nil
	}

	fmt.Fprintf(stdout, "measured:  %.1f GB/s (reads %.1f, writebacks %.1f), prefetched fraction %.2f\n",
		res.TotalGBs, res.ReadGBs, res.WriteGBs, res.PrefetchedReadFraction)
	fmt.Fprintf(stdout, "simulator ground truth: L1 MSHR occupancy %.2f, L2 %.2f, DRAM latency %.0f ns\n\n",
		res.TrueL1Occ, res.TrueL2Occ, res.MeanDRAMLatencyNs)

	fmt.Fprintln(stdout, "Recipe verdicts:")
	for _, a := range core.Advise(rep, w.Capabilities(p, *threads)) {
		fmt.Fprintf(stdout, "  %-24s %-10s %s\n", a.Opt, a.Stance, a.Reason)
	}
	return nil
}

func runProfile(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mlptool profile", flag.ContinueOnError)
	platName := fs.String("platform", "SKL", "platform: SKL, KNL or A64FX")
	out := fs.String("o", "", "write the profile as JSON to this file")
	probes := fs.Int("probes", 300, "latency-probe samples per operating point")
	plot := fs.Bool("plot", false, "render the profile as a terminal chart")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "max concurrently measured operating points (1 = serial; the profile is identical)")
	timeout := fs.Duration("timeout", 0, "overall deadline (0 = none)")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	p, err := platform.ByName(*platName)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mlptool: sweeping %s (%d cores, %s %.0f GB/s theoretical)...\n",
		p.Name, p.Cores, p.Memory.Tech, p.PeakGBs())
	curve, err := xmem.CharacterizeContext(ctx, p, xmem.Options{ProbeOps: *probes, Workers: *workers})
	if err != nil {
		return err
	}

	if *out != "" {
		if err := writeFile(*out, xmem.NewProfile(p, curve).WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "mlptool: wrote %s\n", *out)
		return nil
	}

	fmt.Fprintf(stdout, "# %s bandwidth→latency profile (idle %.1f ns, achievable %.1f GB/s of %.0f theoretical)\n",
		p.Name, curve.IdleLatencyNs(), curve.MaxBandwidthGBs(), p.PeakGBs())
	pts := curve.Points()
	if *plot {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, pt := range pts {
			xs[i] = pt.BandwidthGBs
			ys[i] = pt.LatencyNs
		}
		chart, err := textplot.Render([]textplot.Series{{Name: "loaded latency", X: xs, Y: ys}},
			textplot.Options{Title: p.Name + " bandwidth→latency profile", XLabel: "GB/s", YLabel: "ns"})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, chart)
		return nil
	}
	fmt.Fprintln(stdout, "bandwidth_gbs,latency_ns")
	for _, pt := range pts {
		fmt.Fprintf(stdout, "%.2f,%.2f\n", pt.BandwidthGBs, pt.LatencyNs)
	}
	return nil
}

// withTimeout bounds ctx by d; 0 means no deadline.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// lookup resolves a platform and a workload by name.
func lookup(platName, workName string) (*platform.Platform, workloads.Workload, error) {
	p, err := platform.ByName(platName)
	if err != nil {
		return nil, nil, err
	}
	w, ok := workloads.ByName(workName)
	if !ok {
		var names []string
		for _, w := range workloads.All() {
			names = append(names, w.Name())
		}
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", workName, strings.Join(names, ", "))
	}
	return p, w, nil
}

// loadCurve reads p's bandwidth→latency profile from path, as mlptool
// profile -o writes it, or, when path is empty, characterizes p (once per
// process; a fraction of a second for SKL, about two for KNL).
func loadCurve(ctx context.Context, p *platform.Platform, path string, stderr io.Writer) (*queueing.Curve, error) {
	if path == "" {
		fmt.Fprintf(stderr, "mlptool: characterizing %s (once per platform; save with mlptool profile -o)...\n", p.Name)
		return xmem.ProfileForContext(ctx, p)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	prof, err := xmem.ReadJSON(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if prof.Platform != p.Name {
		return nil, fmt.Errorf("profile is for %s, not %s", prof.Platform, p.Name)
	}
	return prof.Curve()
}

// classify runs an access classifier over the loads and stores among the
// first max operations of gen (all of them when max is 0), and counts the
// operations of each kind.
func classify(gen cpu.Generator, lineBytes, max int) (access.Profile, map[memsys.Kind]int, error) {
	cls, err := access.NewClassifier(lineBytes)
	if err != nil {
		return access.Profile{}, nil, err
	}
	kinds := map[memsys.Kind]int{}
	for i := 0; max == 0 || i < max; i++ {
		op, ok := gen.Next()
		if !ok {
			break
		}
		kinds[op.Kind]++
		if op.Kind == memsys.Load || op.Kind == memsys.Store {
			cls.Observe(op.Addr)
		}
	}
	return cls.Profile(), kinds, nil
}

// measure runs cfg and applies Equation 2 to the bandwidth it measured; m
// brings what the run does not measure.
func measure(ctx context.Context, p *platform.Platform, curve *queueing.Curve, cfg sim.Config, m core.Measurement) (*sim.Result, *core.Report, error) {
	res, err := runner.Run(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	m.BandwidthGBs, m.ActiveCores, m.PrefetchedReadFraction = res.TotalGBs, res.Cores, res.PrefetchedReadFraction
	rep, err := core.Analyze(p, curve, m)
	return res, rep, err
}

// writeFile creates path and fills it with write; a failed close is an
// error too.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
