// Command llload drives llserved with synthetic traffic: a closed-loop
// population of clients or an open-loop arrival process at a fixed rate,
// through the resilient internal/client (per-attempt timeouts, capped
// jittered backoff on 429/5xx, Retry-After honoring). It is the manual
// companion to the end-to-end shed/recover and chaos tests: point it at a
// server, push past capacity, and watch /metrics report the limiter
// holding n_avg at the ceiling while the excess sheds.
//
// Usage:
//
//	llload -url http://localhost:8080/v1/analyze -body '{"platform":"SKL","measurement":{"bandwidth_gbs":80}}'
//	llload -url ... -mode open -rate 400 -duration 10s      # open loop, 400 req/s offered
//	llload -url ... -mode closed -c 16 -duration 10s        # closed loop, 16 clients
//	llload -url ... -retries 3                              # retry 429/5xx, honoring Retry-After
//	llload -url ... -mode open -arrivals poisson -seed 42   # reproducible Poisson arrivals
//	llload -targets http://a:8181/v1/analyze,http://b:8182/v1/analyze -body ...
//	                                                        # round-robin a fleet, per-target breakdown
//
// The body goes out as application/json with POST; without one, requests
// are GETs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"littleslaw/internal/cli"
	"littleslaw/internal/loadgen"
)

// targetList collects -targets values: the flag is repeatable and each
// occurrence may carry a comma-separated list.
type targetList []string

func (t *targetList) String() string { return strings.Join(*t, ",") }

func (t *targetList) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*t = append(*t, s)
		}
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	cli.Exit("llload", err)
}

// run drives the target until -duration, -n or ctx ends the run, then
// prints the summary to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("llload", flag.ContinueOnError)
	url := fs.String("url", "", "target URL (required unless -targets is given)")
	var targets targetList
	fs.Var(&targets, "targets", "comma-separated target URLs to round-robin (repeatable); prints a per-target breakdown")
	body := fs.String("body", "", "request body sent with every request")
	bodyFile := fs.String("body-file", "", "read the request body from a file")
	mode := fs.String("mode", "closed", "driving discipline: closed (fixed clients) or open (fixed arrival rate)")
	concurrency := fs.Int("c", 4, "closed-loop client population")
	rate := fs.Float64("rate", 100, "open-loop arrival rate, requests/second")
	arrivals := fs.String("arrivals", "uniform", "open-loop arrival discipline: uniform or poisson")
	duration := fs.Duration("duration", 5*time.Second, "how long to drive")
	maxRequests := fs.Int("n", 0, "stop after this many arrivals (0 = until -duration)")
	retries := fs.Int("retries", 0, "retry cap per arrival on 429/5xx (sleeps for Retry-After when hinted)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-attempt client timeout")
	seed := fs.Int64("seed", 0, "seed for the arrival schedule and retry jitter (0 = from the clock); same seed replays the same offered load")
	version := fs.Bool("version", false, "print version and exit")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *version {
		cli.Print(stdout, "llload")
		return nil
	}
	if *url == "" && len(targets) == 0 {
		return errors.New("-url or -targets is required")
	}
	payload := []byte(*body)
	if *bodyFile != "" {
		if *body != "" {
			return errors.New("use -body or -body-file, not both")
		}
		data, err := os.ReadFile(*bodyFile)
		if err != nil {
			return err
		}
		payload = data
	}

	where := *url
	if len(targets) > 0 {
		where = fmt.Sprintf("%d targets", len(targets))
		if len(targets) == 1 {
			where = targets[0]
		}
	}
	fmt.Fprintf(stdout, "llload: %s %s  mode=%s", loadgen.Method(payload), where, *mode)
	if *mode == "open" {
		fmt.Fprintf(stdout, " rate=%g/s arrivals=%s", *rate, *arrivals)
	} else {
		fmt.Fprintf(stdout, " clients=%d", *concurrency)
	}
	fmt.Fprintf(stdout, " duration=%s retries=%d", *duration, *retries)
	if *seed != 0 {
		fmt.Fprintf(stdout, " seed=%d", *seed)
	}
	fmt.Fprintln(stdout)

	res, err := loadgen.Run(ctx, loadgen.Options{
		URL:         *url,
		Targets:     targets,
		Body:        payload,
		Mode:        *mode,
		Concurrency: *concurrency,
		Rate:        *rate,
		Arrivals:    *arrivals,
		Duration:    *duration,
		MaxRequests: *maxRequests,
		Retries:     *retries,
		Timeout:     *timeout,
		Seed:        *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "llload:", res)
	if per := res.PerTarget(); len(per) > 1 {
		for _, tc := range per {
			fmt.Fprintln(stdout, "llload:   ", tc)
		}
	}
	if res.RetryAfterSeen > 0 {
		fmt.Fprintf(stdout, "llload: %d sheds carried Retry-After hints\n", res.RetryAfterSeen)
	}
	if res.DegradedOK > 0 {
		by := res.OKByMode()
		fmt.Fprintf(stdout, "llload: goodput split: %d full-fidelity + %d degraded (stale %d, analytic %d); degraded successes count as successes\n",
			res.OK-res.DegradedOK, res.DegradedOK, by["stale"], by["analytic"])
	}
	if id, lat := res.SlowestTrace(); id != "" {
		fmt.Fprintf(stdout, "llload: slowest request %s took %s — GET /v1/trace/%s for its waterfall\n", id, lat.Round(time.Millisecond), id)
	}
	if res.OK == 0 && res.Sent > 0 {
		return fmt.Errorf("none of %d requests succeeded", res.Sent)
	}
	return nil
}
