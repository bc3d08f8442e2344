package limit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"littleslaw/internal/queueing"
)

func TestAcquireRelease(t *testing.T) {
	l := New(Config{Ceiling: 2})
	rel, waited, err := l.Acquire(context.Background(), "r")
	if err != nil || waited {
		t.Fatalf("Acquire = (waited=%v, %v), want immediate admit", waited, err)
	}
	if snap := l.Snapshot(); snap.InFlight != 1 || snap.Admitted != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	rel()
	rel() // idempotent
	if snap := l.Snapshot(); snap.InFlight != 0 || snap.Admitted != 1 {
		t.Fatalf("snapshot after release = %+v", snap)
	}
}

func TestShedWithoutQueue(t *testing.T) {
	l := New(Config{Ceiling: 1, MaxQueue: -1})
	rel, _, err := l.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	_, _, err = l.Acquire(context.Background(), "r")
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter < time.Second {
		t.Fatalf("shed = %+v", shed)
	}
	if snap := l.Snapshot(); snap.Shed != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestQueueGrantsFIFO(t *testing.T) {
	l := New(Config{Ceiling: 1, MaxQueue: 4, QueueTimeout: 5 * time.Second})
	rel, _, err := l.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 3
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		// Enqueue strictly one at a time so FIFO order is deterministic.
		waitUntil(t, func() bool { return l.Snapshot().QueueDepth == i })
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, waited, err := l.Acquire(context.Background(), "r")
			if err != nil || !waited {
				t.Errorf("waiter %d: (waited=%v, %v)", i, waited, err)
				return
			}
			order <- i
			rel()
		}(i)
	}
	waitUntil(t, func() bool { return l.Snapshot().QueueDepth == waiters })
	rel() // the chain of releases drains the whole queue
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("grant order: got waiter %d, want %d", got, want)
		}
		want++
	}
	if snap := l.Snapshot(); snap.Queued != waiters || snap.Admitted != waiters+1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestQueueFullSheds(t *testing.T) {
	l := New(Config{Ceiling: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second})
	rel, _, err := l.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	go l.Acquire(context.Background(), "r") // fills the queue
	waitUntil(t, func() bool { return l.Snapshot().QueueDepth == 1 })
	_, _, err = l.Acquire(context.Background(), "r")
	if !errors.Is(err, ErrShed) {
		t.Fatalf("overflow err = %v, want ErrShed", err)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	l := New(Config{Ceiling: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	rel, _, err := l.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	_, waited, err := l.Acquire(context.Background(), "r")
	if !errors.Is(err, ErrShed) || !waited {
		t.Fatalf("queued Acquire = (waited=%v, %v), want timeout shed", waited, err)
	}
	snap := l.Snapshot()
	if snap.Shed != 1 || snap.QueueDepth != 0 {
		t.Fatalf("snapshot = %+v (timed-out waiter must leave the queue)", snap)
	}
}

func TestQueueContextCancel(t *testing.T) {
	l := New(Config{Ceiling: 1, MaxQueue: 4, QueueTimeout: 5 * time.Second})
	rel, _, err := l.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := l.Acquire(ctx, "r")
		done <- err
	}()
	waitUntil(t, func() bool { return l.Snapshot().QueueDepth == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap := l.Snapshot()
	if snap.QueueDepth != 0 || snap.Shed != 0 {
		t.Fatalf("snapshot = %+v (cancel is not a shed)", snap)
	}
}

func TestCancelAfterGrantReturnsSlot(t *testing.T) {
	// A waiter whose context dies exactly as the grant fires must hand the
	// slot back so the next waiter is not starved.
	l := New(Config{Ceiling: 1, MaxQueue: 4, QueueTimeout: 5 * time.Second})
	rel, _, err := l.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// When the grant beats the cancellation, Acquire succeeds and the
		// slot is ours to release — mirror the middleware's deferred call.
		rel, _, err := l.Acquire(ctx, "r")
		if rel != nil {
			rel()
		}
		done <- err
	}()
	waitUntil(t, func() bool { return l.Snapshot().QueueDepth == 1 })
	// Race the grant against the cancellation; whichever way it lands, the
	// slot must end up free.
	go cancel()
	rel()
	<-done
	waitUntil(t, func() bool {
		snap := l.Snapshot()
		return snap.InFlight == 0 && snap.QueueDepth == 0
	})
	rel2, _, err := l.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatalf("slot leaked: %v", err)
	}
	rel2()
}

// TestNAvgMatchesOccupancyAt is the golden test tying the limiter to the
// paper pipeline: drive the limiter with a synthetic steady trace under a
// fake clock (λ = 200/s, W = 25 ms) and check its measured n_avg against the
// same quantity computed by queueing.Curve.OccupancyAt from a flat
// bandwidth→latency profile. Little's Law on both sides: λ·W = 5.
func TestNAvgMatchesOccupancyAt(t *testing.T) {
	const (
		lambda    = 200.0                 // arrivals per second
		service   = 25 * time.Millisecond // constant service time W
		lineBytes = 64
		duration  = 30 * time.Second
	)
	clock := time.Unix(0, 0)
	l := New(Config{Ceiling: 64, Now: func() time.Time { return clock }})

	// Event-driven replay: arrivals every 1/λ, each releasing after W.
	type event struct {
		at      time.Time
		release func()
	}
	interval := time.Duration(float64(time.Second) / lambda)
	var pending []event
	for at := time.Unix(0, 0); at.Sub(time.Unix(0, 0)) < duration; at = at.Add(interval) {
		// Retire completions due before this arrival, in time order.
		sort.Slice(pending, func(i, j int) bool { return pending[i].at.Before(pending[j].at) })
		for len(pending) > 0 && !pending[0].at.After(at) {
			clock = pending[0].at
			pending[0].release()
			pending = pending[1:]
		}
		clock = at
		rel, _, err := l.Acquire(context.Background(), "analyze")
		if err != nil {
			t.Fatalf("admission failed mid-trace at %v: %v", at, err)
		}
		pending = append(pending, event{at: at.Add(service), release: rel})
	}
	// Read n_avg at the last arrival instant — the steady-state reading
	// /metrics would report. (Draining the tail first would average
	// the emptying system into the window, which is the estimator being
	// honest about an ended trace, not an error.)
	got := l.Snapshot().NAvg
	for _, ev := range pending {
		clock = ev.at
		ev.release()
	}

	// The same occupancy via the paper pipeline: a flat profile (latency
	// independent of load) queried at the bandwidth this arrival process
	// implies, bw = λ × lineBytes.
	curve := queueing.MustCurve([]queueing.CurvePoint{
		{BandwidthGBs: 0, LatencyNs: service.Seconds() * 1e9},
		{BandwidthGBs: 100, LatencyNs: service.Seconds() * 1e9},
	})
	bwGBs := lambda * lineBytes / 1e9
	want := curve.OccupancyAt(bwGBs, lineBytes)
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("limiter n_avg = %.4f, OccupancyAt = %.4f (diverges > 2%%)", got, want)
	}
	// And both must equal λ·W exactly enough to mean something.
	if lw := lambda * service.Seconds(); math.Abs(want-lw) > 1e-9 {
		t.Fatalf("OccupancyAt = %v, want λ·W = %v", want, lw)
	}
}

// TestNAvgDecaysWithHalfLife: the reported occupancy has memory — it
// forgets a finished run of work at queueing.DefaultHalfLife, not at once.
func TestNAvgDecaysWithHalfLife(t *testing.T) {
	clock := time.Unix(0, 0)
	l := New(Config{Ceiling: 4, Now: func() time.Time { return clock }})
	// 40 one-by-one admissions, each taking 1s: λ≈steady, W=1s, four
	// half-lives of load.
	for i := 0; i < 40; i++ {
		rel, _, err := l.Acquire(context.Background(), "r")
		if err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
		clock = clock.Add(time.Second)
		rel()
	}
	n0 := l.Snapshot().NAvg
	if n0 <= 0 {
		t.Fatalf("n_avg = %v after sustained load, want > 0", n0)
	}
	clock = clock.Add(2 * queueing.DefaultHalfLife)
	n1 := l.Snapshot().NAvg
	if n1 >= n0/3 || n1 <= 0 {
		t.Fatalf("n_avg decayed %v → %v; want roughly a quarter after two half-lives", n0, n1)
	}
}

// TestStallNeverQueuesBehindNothing replays the benchmark's hit_serve shape
// on a fake clock — 2 closed-loop clients, W = 70 µs, one 50 ms stall, the
// default ceiling of 64. A forecast λ·W read that stall as ~28 k/s × 10 ms
// ≈ 280 requests in the system and queued both clients behind nothing; the
// measured occupancy of two clients can never pass 2, so nothing may queue
// or shed at any point, before, during or after the stall.
func TestStallNeverQueuesBehindNothing(t *testing.T) {
	const (
		clients = 2
		service = 70 * time.Microsecond
		stall   = 50 * time.Millisecond
		rounds  = 60000 // ≈ 4.2 s of traffic; the stall lands mid-run
	)
	clock := time.Unix(0, 0)
	l := New(Config{Now: func() time.Time { return clock }})
	check := func(when string) {
		t.Helper()
		snap := l.Snapshot()
		if snap.Queued != 0 || snap.Shed != 0 || snap.QueueDepth != 0 {
			t.Fatalf("%s: queued %d shed %d depth %d with at most %d in flight",
				when, snap.Queued, snap.Shed, snap.QueueDepth, clients)
		}
		if snap.NAvg > clients {
			t.Fatalf("%s: n_avg = %g with only %d clients", when, snap.NAvg, clients)
		}
	}
	for round := 0; round < rounds; round++ {
		var releases [clients]func()
		for c := range releases {
			rel, waited, err := l.Acquire(context.Background(), "analyze")
			if err != nil || waited {
				t.Fatalf("round %d client %d: (waited=%v, %v) at default ceiling", round, c, waited, err)
			}
			releases[c] = rel
		}
		w := service
		if round == rounds/2 {
			w = stall
		}
		clock = clock.Add(w)
		for _, rel := range releases {
			rel()
		}
		check(fmt.Sprintf("round %d", round))
	}
}

// waitUntil polls for a condition with a deadline — the limiter's queue
// state changes on goroutine scheduling boundaries the test cannot hook.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
