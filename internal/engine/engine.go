// Package engine provides the concurrent execution substrate shared by the
// repository's embarrassingly-parallel pipelines: table regeneration
// (internal/experiments), X-Mem profiling (internal/xmem) and the autotune
// loop (internal/autotune). Each paper table row, X-Mem load point and
// autotune probe is an independent full-node simulation, so they fan out
// across a bounded worker pool.
//
// The engine's contract is determinism first: results come back in
// submission order regardless of worker count or completion order, so any
// pipeline built on Map produces byte-identical output with 1 worker and
// with N. Speedup is the payoff, never the bar.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"littleslaw/internal/faults"
	"littleslaw/internal/trace"
)

// FaultSite is the engine's fault-injection point, evaluated once per
// protected job (every Map job and every LRU computation). It honors all
// three job-shaped kinds: latency, error, and panic — the last exercising
// the pool's own panic-to-PanicError recovery.
const FaultSite = "engine.job"

// Pool is a bounded worker pool. The zero value is not useful; construct
// with New. A Pool carries no queues or goroutines of its own — each Map
// call spawns at most Workers() goroutines for its duration — so Pools are
// cheap and need no shutdown.
type Pool struct {
	workers int
}

// New returns a pool running at most workers jobs concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// PanicError wraps a panic recovered from a job so that one misbehaving
// simulation aborts its pipeline with a diagnosable error instead of
// killing the process.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job panicked: %v\n%s", e.Value, e.Stack)
}

// protect runs job with panic-to-error recovery. It is also the engine's
// fault-injection point: an injected panic lands inside the recovery
// envelope, proving one chaotic job aborts its pipeline with a diagnosable
// error rather than the process.
func protect[T any](ctx context.Context, job func(context.Context) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	switch f := faults.Eval(ctx, FaultSite); f.Kind {
	case faults.KindLatency:
		f.Sleep(ctx)
	case faults.KindError:
		return v, f.Err()
	case faults.KindPanic:
		panic(f.PanicValue())
	}
	return job(ctx)
}

// Map runs the jobs on the pool and returns their results in submission
// order — the deterministic-ordering guarantee every pipeline in this
// repository builds on. On the first job error the context handed to the
// remaining jobs is cancelled and Map returns that error (the lowest-index
// non-cancellation error, so the reported failure does not depend on
// completion order). A nil pool or a single worker degenerates to a serial
// in-order loop.
func Map[T any](ctx context.Context, p *Pool, jobs []func(context.Context) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]T, len(jobs))
	workers := p.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, job := range jobs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Serial jobs wait only on their predecessors, whose spans
			// already account that time — record service, not queue.
			a := trace.Begin(ctx, "engine")
			v, err := protect(ctx, job)
			a.End("job")
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	mapStart := time.Now()
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				// Pool wait: how long the job sat before a worker picked it
				// up. Fan-out spans measure work time, not wall time — a
				// traced parallel section legitimately sums past its
				// request's W (see the trace package doc).
				a := trace.Begin(ctx, "engine")
				a.SetQueue(time.Since(mapStart))
				v, err := protect(ctx, jobs[i])
				a.End("job")
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()

	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		// Prefer the lowest-index real failure over cancellations it caused.
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}
