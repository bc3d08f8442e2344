// Command llwatch runs the sliding-window Little's-Law monitor live, in
// either of two places. Locally, it tails a stream of bandwidth counter
// samples (NDJSON on stdin or a file) and runs the monitor itself. Remotely
// (-url), it tails a named llserved stream — GET /v1/watch/{stream} — over
// the resilient client: the connection retries with backoff, a broken
// stream reconnects and deduplicates replayed events by sequence number,
// and a terminal "error" event from the server (its monitor died) is
// surfaced instead of a silent hang. Either way: every window prints a
// sparkline of n_avg against the binding MSHR ceiling, every detected
// phase prints its Figure-1 recipe advice, and the final summary calls out
// when the whole-stream average would have misled (§III-D).
//
// Usage:
//
//	llserved-style counters | llwatch -platform SKL
//	llwatch -platform SKL -f samples.ndjson -window 8 -stride 4
//	llwatch -url http://localhost:8080 -stream run42    # remote tail
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"littleslaw/internal/cli"
	"littleslaw/internal/client"
	"littleslaw/internal/experiments"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/stream"
	"littleslaw/internal/textplot"
	"littleslaw/internal/xmem"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	cli.Exit("llwatch", err)
}

// run monitors one stream to its end — the samples on stdin or -f, or the
// server-side stream named by -url and -stream — printing to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("llwatch", flag.ContinueOnError)
	platName := fs.String("platform", "SKL", "platform whose curve and MSHR ceilings apply (local mode)")
	input := fs.String("f", "-", "NDJSON sample file ('-' = stdin; local mode)")
	remoteURL := fs.String("url", "", "llserved base URL — tail a server-side stream instead of running the monitor locally")
	streamName := fs.String("stream", "", "named stream to tail on the server (with -url)")
	period := fs.Float64("period", 1, "seconds between samples that carry no t_s")
	window := fs.Int("window", 8, "sliding-window width in samples")
	stride := fs.Int("stride", 0, "window stride in samples (0 = half the window)")
	cores := fs.Int("cores", 0, "active cores the samples were measured on (0 = whole node)")
	threads := fs.Int("threads", 1, "threads per core in the measured run")
	random := fs.Bool("random-access", false, "classify the stream as random-access when samples carry no prefetch fraction")
	paper := fs.Bool("paper-profile", true, "use the paper's anchor curve (false = run the X-Mem characterization first)")
	version := fs.Bool("version", false, "print version and exit")
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}
	if *version {
		cli.Print(stdout, "llwatch")
		return nil
	}
	pr := &printer{w: stdout, history: make([]float64, 0, sparkWidth)}

	if *remoteURL != "" {
		if *streamName == "" {
			return errors.New("-url needs -stream (the server-side stream name)")
		}
		return tail(ctx, *remoteURL, *streamName, pr, stderr)
	}

	p, err := platform.ByName(*platName)
	if err != nil {
		return err
	}
	var profile *queueing.Curve
	if *paper {
		profile, err = experiments.PaperProfileFor(p)
	} else {
		fmt.Fprintf(stderr, "llwatch: characterizing %s...\n", p.Name)
		profile, err = xmem.Characterize(p, xmem.Options{})
	}
	if err != nil {
		return err
	}

	var r io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	cfg := stream.Config{
		Platform:       p,
		Profile:        profile,
		WindowSamples:  *window,
		StrideSamples:  *stride,
		ActiveCores:    *cores,
		ThreadsPerCore: *threads,
		RandomAccess:   *random,
	}
	sum, err := stream.Monitor(ctx, stream.NewNDJSONSource(r, *period), cfg, pr.print)
	if err != nil {
		return err
	}
	pr.summary(*sum)
	return nil
}

// sparkWidth is the sparkline's width in windows.
const sparkWidth = 32

// printer renders monitor events; both the local monitor and the remote
// tail feed it.
type printer struct {
	w       io.Writer
	history []float64 // the last sparkWidth windows' n_avg
}

func (pr *printer) print(ev stream.Event) error {
	switch ev.Kind {
	case "window":
		w := ev.Window
		// The sparkline's fixed ceiling is the window's binding MSHR
		// capacity, so a full block always reads "queue at its limit".
		if len(pr.history) == sparkWidth {
			pr.history = append(pr.history[:0], pr.history[1:]...)
		}
		pr.history = append(pr.history, w.Occupancy)
		mark := " "
		if w.Saturated {
			mark = "!"
		}
		fmt.Fprintf(pr.w, "%*s  n_avg %5.1f /%2d %-2s%s  %6.1f GB/s  %5.1f ns  [%.0f–%.0fs]\n",
			sparkWidth, textplot.Sparkline(pr.history, 0, float64(w.LimiterCapacity)),
			w.Occupancy, w.LimiterCapacity, w.Limiter, mark, w.BandwidthGBs, w.LatencyNs, w.StartS, w.EndS)
	case "phase":
		ph := ev.Phase
		fmt.Fprintf(pr.w, "-- phase %d [%.0f–%.0fs, %d windows]: %s (n_avg %.1f/%d %s at %.1f GB/s)\n",
			ph.Index, ph.StartS, ph.EndS, ph.Windows, ph.Action,
			ph.Occupancy, ph.LimiterCapacity, ph.Limiter, ph.BandwidthGBs)
		for _, a := range ph.Advice {
			fmt.Fprintf(pr.w, "     %-10s %-22s %s\n", a.Stance, a.Optimization, a.Reason)
		}
	}
	return nil
}

func (pr *printer) summary(sum stream.SummaryEvent) {
	fmt.Fprintf(pr.w, "== %d samples, %d windows, %d phases; whole-stream mean %.1f GB/s -> n_avg %.1f, action %s\n",
		sum.Samples, sum.Windows, sum.Phases, sum.BandwidthGBs, sum.Occupancy, sum.Action)
	if sum.MisleadingAggregate {
		fmt.Fprintf(pr.w, "!! the whole-stream average misleads: %s\n", sum.Detail)
	}
}

// errStreamDone unwinds the tail once a terminal event (summary or error)
// arrived — the server closes the stream right after, but unwinding on the
// event itself means a stalled close cannot hang the watcher.
var errStreamDone = errors.New("stream done")

// reconnects is how many times tail reconnects a broken stream before it
// gives up.
const reconnects = 5

// tail follows a server-side stream. Reconnects replay recent events from
// the broker's buffer; lastSeq filters the replay so each event prints
// exactly once.
func tail(ctx context.Context, baseURL, name string, pr *printer, stderr io.Writer) error {
	cl, err := client.New(client.Config{BaseURL: baseURL})
	if err != nil {
		return err
	}
	lastSeq := -1
	var terminal error
	done := false
	for tryConnect := 0; ; tryConnect++ {
		err := cl.Stream(ctx, "/v1/watch/"+name, func(line []byte) error {
			var ev stream.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				return fmt.Errorf("bad event: %w", err)
			}
			if ev.Seq <= lastSeq {
				return nil
			}
			lastSeq = ev.Seq
			switch ev.Kind {
			case "summary":
				pr.summary(*ev.Summary)
				done = true
				return errStreamDone
			case "error":
				terminal = fmt.Errorf("server monitor failed: %s", ev.Error.Message)
				done = true
				return errStreamDone
			default:
				return pr.print(ev)
			}
		})
		switch {
		case done:
			return terminal
		case err == nil:
			// Clean EOF without a terminal event: the stream closed
			// server-side (monitor finished before we subscribed, or the
			// server shut down). Nothing more will come.
			return nil
		case ctx.Err() != nil:
			return nil
		case tryConnect >= reconnects:
			return err
		}
		fmt.Fprintf(stderr, "llwatch: stream broken (%v), reconnecting %d/%d\n", err, tryConnect+1, reconnects)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(500 * time.Millisecond):
		}
	}
}
