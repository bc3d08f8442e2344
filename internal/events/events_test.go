package events

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockRoundTrip(t *testing.T) {
	c := NewClock(2.1e9)
	if got := c.Period(); got != 476 {
		t.Fatalf("2.1GHz period = %d ps, want 476", got)
	}
	d := c.Cycles(100)
	if cyc := c.ToCycles(d); cyc < 99.9 || cyc > 100.1 {
		t.Fatalf("round trip 100 cycles -> %v", cyc)
	}
}

func TestClockPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", got)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %d, want 30", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	var s Scheduler
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestAfterChainsRelativeTime(t *testing.T) {
	var s Scheduler
	var fired Time
	s.After(100, func() {
		s.After(50, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 150 {
		t.Fatalf("chained After fired at %d, want 150", fired)
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	var s Scheduler
	ran := 0
	s.At(10, func() { ran++ })
	s.At(20, func() { ran++ })
	s.At(30, func() { ran++ })
	s.RunUntil(20)
	if ran != 2 {
		t.Fatalf("RunUntil(20) ran %d events, want 2", ran)
	}
	if s.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var s Scheduler
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", s.Now())
	}
}

func TestRunWhile(t *testing.T) {
	var s Scheduler
	ran := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() { ran++ })
	}
	s.RunWhile(func() bool { return ran < 4 })
	if ran != 4 {
		t.Fatalf("RunWhile stopped after %d events, want 4", ran)
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, including interleaved insertion during dispatch.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Scheduler
		var fired []Time
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			at := Time(rng.Intn(1000))
			s.At(at, func() {
				fired = append(fired, s.Now())
				// Sometimes schedule a follow-up event.
				if rng.Intn(3) == 0 {
					s.After(Duration(rng.Intn(100)), func() {
						fired = append(fired, s.Now())
					})
				}
			})
		}
		s.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if got := FromNanoseconds(1.5); got != 1500 {
		t.Fatalf("FromNanoseconds(1.5) = %d, want 1500", got)
	}
	if got := Time(2500).Nanoseconds(); got != 2.5 {
		t.Fatalf("Nanoseconds() = %v, want 2.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
}

// orderProbe drives one seeded random schedule and logs it: every event
// scheduled gets the next id (which is therefore its seq), and firing
// appends the id to fired. Events are a mix of typed events on the probe
// and plain funcs through the At/After adapter; when one fires it may
// schedule a burst of further events at the current instant, a burst at
// one later instant, or a scatter.
type orderProbe struct {
	s     Scheduler
	rng   *rand.Rand
	at    []Time // at[id] = the time event id was scheduled for
	fired []int
	quota int // events still allowed to be scheduled
}

func (p *orderProbe) schedule(t Time) {
	if p.quota == 0 {
		return
	}
	p.quota--
	id := len(p.at)
	p.at = append(p.at, t)
	if p.rng.Intn(2) == 0 {
		p.s.Schedule(t, Callback{Target: p, Kind: uint32(id % 7), Arg: uint64(id)})
	} else {
		p.s.At(t, func() { p.Fire(0, uint64(id)) })
	}
}

func (p *orderProbe) Fire(_ uint32, arg uint64) {
	p.fired = append(p.fired, int(arg))
	now := p.s.Now()
	switch p.rng.Intn(4) {
	case 0: // events scheduling events at now
		for n := p.rng.Intn(4); n > 0; n-- {
			p.schedule(now)
		}
	case 1: // a burst at one later instant
		t := now + Time(p.rng.Intn(50))
		for n := p.rng.Intn(6); n > 0; n-- {
			p.schedule(t)
		}
	case 2: // scatter
		for n := p.rng.Intn(3); n > 0; n-- {
			p.schedule(now + Time(p.rng.Intn(200)))
		}
	}
}

// TestFiringOrderMatchesStableSort is the determinism proof for the event
// queue: whatever its layout, it must fire in exactly the order a stable
// sort by time of the scheduling log gives — (at, seq) being a total
// order, that order is unique, so simulated results cannot depend on how
// the queue is built.
func TestFiringOrderMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		p := &orderProbe{rng: rand.New(rand.NewSource(seed)), quota: 2000}
		for n := 1 + p.rng.Intn(40); n > 0; n-- {
			p.schedule(Time(p.rng.Intn(100)))
		}
		for n := p.rng.Intn(30); n > 0; n-- { // an opening burst at one instant
			p.schedule(17)
		}
		switch seed % 3 {
		case 0:
			p.s.Run()
		case 1: // RunUntil in slices must not perturb the order
			for p.s.Pending() > 0 {
				p.s.RunUntil(p.s.Now() + 13)
			}
		case 2:
			p.s.RunWhile(func() bool { return true })
		}
		if len(p.fired) != len(p.at) || p.s.Pending() != 0 {
			t.Fatalf("seed %d: fired %d of %d scheduled, %d pending", seed, len(p.fired), len(p.at), p.s.Pending())
		}
		want := make([]int, len(p.at))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return p.at[want[i]] < p.at[want[j]] })
		for i := range want {
			if p.fired[i] != want[i] {
				t.Fatalf("seed %d: firing #%d was event %d (t=%d), reference order has %d (t=%d)",
					seed, i, p.fired[i], p.at[p.fired[i]], want[i], p.at[want[i]])
			}
		}
	}
}

// TestTypedEventsKeepTheSchedulerContracts: Schedule panics on the past
// like At does, and Pending, RunUntil, RunWhile and Reset treat typed
// events and funcs alike.
func TestTypedEventsKeepTheSchedulerContracts(t *testing.T) {
	var s Scheduler
	p := &orderProbe{rng: rand.New(rand.NewSource(1))}
	for i := 1; i <= 6; i++ {
		s.Schedule(Time(10*i), Callback{Target: p, Arg: uint64(i)})
	}
	if s.Pending() != 6 {
		t.Fatalf("Pending() = %d, want 6", s.Pending())
	}
	s.RunUntil(30)
	if len(p.fired) != 3 || s.Now() != 30 || s.Pending() != 3 {
		t.Fatalf("RunUntil(30): fired %v, now %d, pending %d", p.fired, s.Now(), s.Pending())
	}
	s.RunWhile(func() bool { return len(p.fired) < 5 })
	if len(p.fired) != 5 || s.Pending() != 1 {
		t.Fatalf("RunWhile: fired %v, pending %d", p.fired, s.Pending())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Schedule in the past did not panic")
			}
		}()
		s.Schedule(s.Now()-1, Callback{Target: p})
	}()
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Step() {
		t.Fatalf("Reset left now=%d pending=%d", s.Now(), s.Pending())
	}
	s.ScheduleAfter(5, Callback{Target: p, Arg: 9})
	s.Run()
	if s.Now() != 5 || p.fired[len(p.fired)-1] != 9 {
		t.Fatalf("scheduler unusable after Reset: now %d, fired %v", s.Now(), p.fired)
	}
	if Call(nil).Valid() || !Call(func() {}).Valid() {
		t.Fatal("Call(nil) must be the zero Callback and Call(fn) a valid one")
	}
}
