package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func intJobs(n int) []func(context.Context) (int, error) {
	jobs := make([]func(context.Context) (int, error), n)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (int, error) { return i * i, nil }
	}
	return jobs
}

func TestMapPreservesSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), New(workers), intJobs(50))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNilPool(t *testing.T) {
	got, err := Map(context.Background(), nil, intJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 4 {
		t.Fatalf("nil-pool map wrong: %v", got)
	}
	if got, err := Map(context.Background(), New(4), intJobs(0)); err != nil || len(got) != 0 {
		t.Fatalf("empty job list: %v %v", got, err)
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		jobs := intJobs(20)
		jobs[7] = func(context.Context) (int, error) { return 0, fmt.Errorf("seven: %w", boom) }
		_, err := Map(context.Background(), New(workers), jobs)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
	}
}

func TestMapRecoversPanics(t *testing.T) {
	jobs := intJobs(4)
	jobs[2] = func(context.Context) (int, error) { panic("kaboom") }
	_, err := Map(context.Background(), New(4), jobs)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if fmt.Sprint(pe.Value) != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

func TestMapHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, New(4), intJobs(8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapErrorCancelsRemainingJobs(t *testing.T) {
	var started atomic.Int64
	jobs := make([]func(context.Context) (int, error), 64)
	jobs[0] = func(context.Context) (int, error) { return 0, errors.New("early failure") }
	for i := 1; i < len(jobs); i++ {
		jobs[i] = func(ctx context.Context) (int, error) {
			started.Add(1)
			<-ctx.Done() // a cancelled sibling must not hang here forever
			return 0, ctx.Err()
		}
	}
	done := make(chan struct{})
	go func() {
		Map(context.Background(), New(2), jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Map hung after a job error")
	}
	if started.Load() == int64(len(jobs)-1) {
		t.Log("note: every job started before cancellation propagated (slow host?)")
	}
}
