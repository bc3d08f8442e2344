package limit

import "sync/atomic"

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
