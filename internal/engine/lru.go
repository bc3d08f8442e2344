package engine

import (
	"container/list"
	"context"
	"sync"
	"time"

	"littleslaw/internal/trace"
)

// LRU is a singleflight result cache: the first caller of a key executes
// the function while concurrent callers of the same key wait for — and
// share — its result; successful results are retained, failed calls are
// forgotten and retried by the next caller. With a positive capacity it
// retains at most that many completed entries, evicting the least recently
// used when a new key lands (the cache a long-running service needs); at
// capacity <= 0 it retains every key for the life of the process (the
// cache a batch run needs).
//
// In-flight computations are never evicted (a waiter holds a reference to
// the flight), so the map can transiently exceed capacity by the number of
// concurrent distinct misses.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[K]*list.Element // of *lruEntry[K, V]
	order    *list.List          // front = most recently used
}

type lruEntry[K comparable, V any] struct {
	key K
	f   *flight[V]
}

// flight is one computation of a key: done closes when val and err are set.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewLRU returns a cache retaining at most capacity completed entries;
// capacity <= 0 means unbounded.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{capacity: capacity, m: make(map[K]*list.Element), order: list.New()}
}

// Do returns the value for key, computing it with fn at most once among
// concurrent callers. The second return reports whether the value was
// served from the cache — true both for a completed entry and for joining
// another caller's in-flight computation (the computation was not paid for
// by this caller either way). Waiters abandon the wait (but not the
// in-flight call) when their own context is cancelled.
func (l *LRU[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, bool, error) {
	for {
		l.mu.Lock()
		if el, ok := l.m[key]; ok {
			l.order.MoveToFront(el)
			f := el.Value.(*lruEntry[K, V]).f
			l.mu.Unlock()
			select {
			case <-f.done:
				// Already resolved: a pure hit, no wait worth a span.
			default:
				// Joining another caller's in-flight computation is queue
				// wait — the singleflight flavor of pool wait.
				join := time.Now()
				select {
				case <-f.done:
					trace.Add(ctx, "engine", "join", time.Since(join), 0)
				case <-ctx.Done():
					var zero V
					return zero, true, ctx.Err()
				}
			}
			if f.err == nil {
				return f.val, true, nil
			}
			// The shared call failed (possibly from another caller's
			// cancellation); retry under this caller's context.
			if err := ctx.Err(); err != nil {
				var zero V
				return zero, true, err
			}
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		el := l.order.PushFront(&lruEntry[K, V]{key: key, f: f})
		l.m[key] = el
		l.evictLocked()
		l.mu.Unlock()

		a := trace.Begin(ctx, "engine")
		f.val, f.err = protect(ctx, fn)
		if f.err != nil {
			l.remove(key, f)
		}
		close(f.done)
		a.End("compute")
		return f.val, false, f.err
	}
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its capacity. Callers hold l.mu.
func (l *LRU[K, V]) evictLocked() {
	if l.capacity <= 0 {
		return
	}
	for el := l.order.Back(); el != nil && len(l.m) > l.capacity; {
		prev := el.Prev()
		e := el.Value.(*lruEntry[K, V])
		select {
		case <-e.f.done:
			delete(l.m, e.key)
			l.order.Remove(el)
		default:
			// In flight: a caller is waiting on it; skip.
		}
		el = prev
	}
}

// remove drops key if it still holds flight f. Matching on the flight —
// not the list element — is load-bearing: Put replaces the flight inside
// an existing element in place, so a failed computation matching on the
// element would erase the concurrently seeded value (and a Forget+Do pair
// reuses the key with a fresh element, which must survive too).
func (l *LRU[K, V]) remove(key K, f *flight[V]) {
	l.mu.Lock()
	if el, ok := l.m[key]; ok && el.Value.(*lruEntry[K, V]).f == f {
		delete(l.m, key)
		l.order.Remove(el)
	}
	l.mu.Unlock()
}

// Put seeds the cache with a completed value.
func (l *LRU[K, V]) Put(key K, val V) {
	f := &flight[V]{done: make(chan struct{}), val: val}
	close(f.done)
	l.mu.Lock()
	if el, ok := l.m[key]; ok {
		el.Value.(*lruEntry[K, V]).f = f
		l.order.MoveToFront(el)
	} else {
		l.m[key] = l.order.PushFront(&lruEntry[K, V]{key: key, f: f})
		l.evictLocked()
	}
	l.mu.Unlock()
}

// Peek returns the completed value for key without computing anything: a
// hit only when the entry exists, has resolved, and resolved without error.
// In-flight computations report a miss rather than blocking — Peek is the
// read path for callers that must answer *now* (stale serving under
// brownout) and cannot afford to join a flight. A hit still refreshes
// recency, since serving a value is using it.
func (l *LRU[K, V]) Peek(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var zero V
	el, ok := l.m[key]
	if !ok {
		return zero, false
	}
	f := el.Value.(*lruEntry[K, V]).f
	select {
	case <-f.done:
	default:
		return zero, false
	}
	if f.err != nil {
		return zero, false
	}
	l.order.MoveToFront(el)
	return f.val, true
}

// Forget drops a key so the next Do re-executes.
func (l *LRU[K, V]) Forget(key K) {
	l.mu.Lock()
	if el, ok := l.m[key]; ok {
		delete(l.m, key)
		l.order.Remove(el)
	}
	l.mu.Unlock()
}

// Len returns the number of cached entries (including in-flight ones).
func (l *LRU[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}
