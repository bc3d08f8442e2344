// Command bench is the repository's system benchmark: named workloads, the
// end-to-end metrics a caller sees, and — on a traced run — what each layer
// under them costs, so that the layers can be added up against the
// end-to-end number (the paper's own identity, W = sum of Wi, used as
// bookkeeping). BENCHMARK.json at the repository root declares the three
// serving workloads, the metrics and the regression bounds; tables_batch, the
// paper's tables against their fixtures, is run by hand. README.md in this
// directory is the glossary.
//
// Usage:
//
//	go run ./bench -workload hit_serve                 # one workload, seed 42, 30 s window
//	go run ./bench -workload fleet_zipf -seed 123 -trace 1
//	go run ./bench -workload miss_serve -out run_a.json
//	go run ./bench -compare run_a.json run_b.json      # exit 1 on a regression
//
// One invocation runs one workload, so every workload starts in a fresh
// process. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"littleslaw/bench/gen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(gen.Workloads(), ", "))
	fs.Int64Var(&o.seed, "seed", 42, "request-sequence seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured window (tables_batch measures one fixed batch instead)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.spans.jsonl")
	fs.IntVar(&o.portBase, "port-base", 18400, "first of ten fixed loopback ports (proxy, three backends, the no-op floor server)")
	fs.StringVar(&o.spansDir, "spans-dir", "bench/out", "where the traced run writes its spans")
	fs.StringVar(&o.goldenDir, "golden-dir", "internal/experiments/testdata/golden", "the committed table fixtures")
	out := fs.String("out", "", "append the result as one JSON line to this results file")
	compare := fs.Bool("compare", false, "compare two results files (arguments: A.json B.json)")
	spec := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration -compare takes its bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		ok, err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	o.traced = *trace != 0

	// The box has two cores and the workloads are sized for them; pinning
	// keeps a run comparable when it lands on a wider machine.
	runtime.GOMAXPROCS(clients)
	var r *result
	var err error
	switch o.workload {
	case gen.HitServe, gen.MissServe, gen.FleetZipf:
		r, err = runServing(context.Background(), o)
	case gen.TablesBatch:
		r, err = runTables(context.Background(), o)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(gen.Workloads(), ", "))
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *out != "" {
		if err := r.appendTo(*out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !r.Correct {
		return 1
	}
	return 0
}
