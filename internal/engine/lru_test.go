package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// eachCapacity runs a test of the singleflight-and-retain contract on the
// unbounded cache (capacity 0, the mode batch pipelines use) and on a
// bounded one: the contract does not depend on eviction.
func eachCapacity(t *testing.T, test func(t *testing.T, l *LRU[string, int])) {
	for _, capacity := range []int{0, 4} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			test(t, NewLRU[string, int](capacity))
		})
	}
}

func TestLRUDoCachesAndReportsHits(t *testing.T) { eachCapacity(t, testLRUDoCachesAndReportsHits) }

func testLRUDoCachesAndReportsHits(t *testing.T, l *LRU[string, int]) {
	calls := 0
	fn := func(context.Context) (int, error) { calls++; return 42, nil }

	v, hit, err := l.Do(context.Background(), "k", fn)
	if err != nil || v != 42 || hit {
		t.Fatalf("first Do = (%d, hit=%v, %v), want (42, false, nil)", v, hit, err)
	}
	v, hit, err = l.Do(context.Background(), "k", fn)
	if err != nil || v != 42 || !hit {
		t.Fatalf("second Do = (%d, hit=%v, %v), want (42, true, nil)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU[int, int](2)
	var calls atomic.Int64
	get := func(k int) {
		t.Helper()
		if _, _, err := l.Do(context.Background(), k, func(context.Context) (int, error) {
			calls.Add(1)
			return k, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(2)
	get(1) // refresh 1; 2 is now the LRU entry
	get(3) // evicts 2
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	before := calls.Load()
	get(1)
	if calls.Load() != before {
		t.Fatal("entry 1 was evicted but should have been retained")
	}
	get(2)
	if calls.Load() != before+1 {
		t.Fatal("entry 2 should have been evicted and recomputed")
	}
}

func TestLRUUnboundedNeverEvicts(t *testing.T) {
	l := NewLRU[int, int](0)
	for k := 0; k < 1000; k++ {
		k := k
		if _, _, err := l.Do(context.Background(), k, func(context.Context) (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d after 1000 distinct keys, want 1000", l.Len())
	}
}

func TestLRUSingleflight(t *testing.T) { eachCapacity(t, testLRUSingleflight) }

func testLRUSingleflight(t *testing.T, l *LRU[string, int]) {
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := l.Do(context.Background(), "k", func(context.Context) (int, error) {
				calls.Add(1)
				<-release
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
			hits[i] = hit
		}(i)
	}
	// Give the flight a moment to be claimed, then release everyone.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	nhits := 0
	for _, h := range hits {
		if h {
			nhits++
		}
	}
	if nhits != waiters-1 {
		t.Fatalf("%d hits, want %d (all but the executor)", nhits, waiters-1)
	}
}

func TestLRUFailedCallsAreForgotten(t *testing.T) { eachCapacity(t, testLRUFailedCallsAreForgotten) }

func testLRUFailedCallsAreForgotten(t *testing.T, l *LRU[string, int]) {
	calls := 0
	boom := errors.New("boom")
	fn := func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 9, nil
	}
	if _, _, err := l.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := l.Do(context.Background(), "k", fn)
	if err != nil || v != 9 || hit {
		t.Fatalf("retry = (%d, hit=%v, %v), want (9, false, nil)", v, hit, err)
	}
}

func TestLRUWaiterCancellation(t *testing.T) {
	l := NewLRU[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	go l.Do(context.Background(), "k", func(context.Context) (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := l.Do(ctx, "k", func(context.Context) (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestLRUInFlightNotEvicted(t *testing.T) {
	l := NewLRU[int, int](1)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := l.Do(context.Background(), 1, func(context.Context) (int, error) {
			close(started)
			<-release
			return 11, nil
		})
		if err != nil || v != 11 {
			t.Errorf("in-flight Do = (%d, %v)", v, err)
		}
	}()
	<-started
	// A burst of other keys must not evict the in-flight entry.
	for k := 2; k < 6; k++ {
		k := k
		if _, _, err := l.Do(context.Background(), k, func(context.Context) (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	<-done
	v, hit, err := l.Do(context.Background(), 1, func(context.Context) (int, error) {
		return 0, fmt.Errorf("should have been cached")
	})
	if err != nil || v != 11 || !hit {
		t.Fatalf("after flight Do = (%d, hit=%v, %v), want (11, true, nil)", v, hit, err)
	}
}

func TestLRUPutAndForget(t *testing.T) { eachCapacity(t, testLRUPutAndForget) }

func testLRUPutAndForget(t *testing.T, l *LRU[string, int]) {
	l.Put("k", 5)
	v, hit, err := l.Do(context.Background(), "k", func(context.Context) (int, error) {
		return 0, fmt.Errorf("should not run")
	})
	if err != nil || v != 5 || !hit {
		t.Fatalf("Do after Put = (%d, hit=%v, %v)", v, hit, err)
	}
	l.Forget("k")
	v, hit, _ = l.Do(context.Background(), "k", func(context.Context) (int, error) { return 6, nil })
	if v != 6 || hit {
		t.Fatalf("Do after Forget = (%d, hit=%v), want (6, false)", v, hit)
	}
}

// TestLRUPutDuringFailingFlightKeepsSeededValue is the regression test for
// the remove-by-element bug: Put replaces the flight inside an in-flight
// entry's element in place, so when that flight then failed, its cleanup
// (matching on the element) erased the value Put had just seeded.
func TestLRUPutDuringFailingFlightKeepsSeededValue(t *testing.T) {
	l := NewLRU[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	boom := errors.New("boom")
	go func() {
		defer close(done)
		_, _, err := l.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("executor err = %v, want boom", err)
		}
	}()
	<-started
	l.Put("k", 99)
	close(release)
	<-done
	v, hit, err := l.Do(context.Background(), "k", func(context.Context) (int, error) {
		return 0, fmt.Errorf("should not run")
	})
	if err != nil || v != 99 || !hit {
		t.Fatalf("Do after Put = (%d, hit=%v, %v), want (99, true, nil)", v, hit, err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

// TestLRUWaiterJoinedBeforePutSeesSeededValue: a waiter that joined the
// doomed flight before Put must retry and land on the seeded value, not
// strand or surface the stale failure.
func TestLRUWaiterJoinedBeforePutSeesSeededValue(t *testing.T) {
	l := NewLRU[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("boom")
	go l.Do(context.Background(), "k", func(context.Context) (int, error) {
		close(started)
		<-release
		return 0, boom
	})
	<-started

	waited := make(chan struct{})
	var wv int
	var werr error
	go func() {
		defer close(waited)
		wv, _, werr = l.Do(context.Background(), "k", func(context.Context) (int, error) {
			return 0, fmt.Errorf("should not run: value was seeded")
		})
	}()
	// Let the waiter join the flight, then seed and fail the flight.
	time.Sleep(10 * time.Millisecond)
	l.Put("k", 42)
	close(release)
	<-waited
	if werr != nil || wv != 42 {
		t.Fatalf("waiter Do = (%d, %v), want (42, nil)", wv, werr)
	}
}

// TestLRUPutDoForgetRace hammers the Put/Do/Forget/failure interleavings
// under the race detector and checks the capacity invariant holds once
// every flight has landed.
func TestLRUPutDoForgetRace(t *testing.T) {
	const capacity = 4
	l := NewLRU[int, int](capacity)
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 8
				switch g % 4 {
				case 0:
					l.Do(context.Background(), k, func(context.Context) (int, error) { return k, nil })
				case 1:
					l.Do(context.Background(), k, func(context.Context) (int, error) { return 0, boom })
				case 2:
					l.Put(k, i)
				case 3:
					l.Forget(k)
				}
			}
		}(g)
	}
	wg.Wait()
	// Every key must still be retrievable (no stranded or corrupted entry)…
	for k := 0; k < 8; k++ {
		if _, _, err := l.Do(context.Background(), k, func(context.Context) (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// …and the inserts above re-trigger eviction, so with all flights done
	// the cache must fit its capacity again.
	if n := l.Len(); n > capacity {
		t.Fatalf("Len = %d after quiescence, want <= %d", n, capacity)
	}
}

func TestLRUPanicPropagates(t *testing.T) {
	l := NewLRU[string, int](2)
	_, _, err := l.Do(context.Background(), "k", func(context.Context) (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	// The failed (panicked) entry must be retried, not cached.
	v, _, err := l.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("retry after panic = (%d, %v)", v, err)
	}
}
