package limit

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// RetryAfterSeconds renders a shed hint for the Retry-After header: whole
// seconds, at least 1.
func RetryAfterSeconds(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// Handler wraps next with admission control. Shed requests get 429 with a
// Retry-After header and a JSON error envelope; a context that expires
// while queued gets 503. This is the standalone form the end-to-end tests
// drive; the analysis service calls the Limiter directly from its own
// instrumentation wrapper for per-route decision metrics.
func Handler(l *Limiter, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, _, err := l.Acquire(r.Context(), r.URL.Path)
		if err != nil {
			status := http.StatusServiceUnavailable
			if shed, ok := err.(*ShedError); ok {
				status = http.StatusTooManyRequests
				w.Header().Set("Retry-After", RetryAfterSeconds(shed.RetryAfter))
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Content-Type-Options", "nosniff")
			w.WriteHeader(status)
			fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
			return
		}
		// The release must survive a panicking handler — a leaked slot
		// under chaos would ratchet in-flight up until the limiter sheds
		// everything forever — and the panic must become a 500 rather than
		// killing the connection with no response. The recover runs before
		// the deferred release (LIFO), so the slot is returned either way.
		defer release()
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				if !tw.wrote {
					w.Header().Set("Content-Type", "application/json")
					w.Header().Set("X-Content-Type-Options", "nosniff")
					w.WriteHeader(http.StatusInternalServerError)
					fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf("handler panicked: %v", v))
				}
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether the handler started writing, so the panic
// guard knows if a 500 can still be sent.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *trackingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Sessions caps long-lived connections — streaming subscribers — where a
// latency-based limiter is meaningless (the "request" lasts as long as the
// client stays). It is the subscriber-count analogue of the Limiter's
// occupancy ceiling.
type Sessions struct {
	max    int64
	active atomic.Int64
	denied atomic.Uint64
}

// NewSessions caps concurrent sessions at max (max <= 0 means 64).
func NewSessions(max int) *Sessions {
	if max <= 0 {
		max = 64
	}
	return &Sessions{max: int64(max)}
}

// Acquire claims a session slot. It returns a release function and true,
// or nil and false when the cap is reached.
func (s *Sessions) Acquire() (release func(), ok bool) {
	if s.active.Add(1) > s.max {
		s.active.Add(-1)
		s.denied.Add(1)
		return nil, false
	}
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			s.active.Add(-1)
		}
	}, true
}

// Active returns the number of live sessions.
func (s *Sessions) Active() int { return int(s.active.Load()) }

// Max returns the session cap.
func (s *Sessions) Max() int { return int(s.max) }

// Denied returns how many acquisitions the cap rejected.
func (s *Sessions) Denied() uint64 { return s.denied.Load() }
