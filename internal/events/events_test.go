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

// spanProbe is orderProbe at the reach of a bucketed queue. Its deltas are
// log-uniform over 1 ps to 2^24 ps, so one schedule spans thousands of
// fixed-width time buckets, wraps any ring of them and runs past its
// horizon; and it repeats the time of an event still pending, so equal
// times meet with seqs scheduled far apart. pending lists the ids not yet
// fired, so the test can find the next event without asking the queue.
type spanProbe struct {
	s       Scheduler
	rng     *rand.Rand
	at      []Time // at[id] = the time event id was scheduled for
	pending []int
	fired   []int
	quota   int // events still allowed to be scheduled
}

func (p *spanProbe) delta() Duration {
	return Duration(1 + p.rng.Int63n(int64(1)<<p.rng.Intn(25)))
}

func (p *spanProbe) schedule(t Time) {
	if p.quota == 0 {
		return
	}
	p.quota--
	id := len(p.at)
	p.at = append(p.at, t)
	p.pending = append(p.pending, id)
	if p.rng.Intn(2) == 0 {
		p.s.Schedule(t, Callback{Target: p, Kind: uint32(id % 5), Arg: uint64(id)})
	} else {
		p.s.At(t, func() { p.Fire(0, uint64(id)) })
	}
}

// next returns the earliest time still pending.
func (p *spanProbe) next() Time {
	t := p.at[p.pending[0]]
	for _, id := range p.pending[1:] {
		t = min(t, p.at[id])
	}
	return t
}

func (p *spanProbe) Fire(_ uint32, arg uint64) {
	id := int(arg)
	p.fired = append(p.fired, id)
	for i, q := range p.pending {
		if q == id {
			p.pending[i] = p.pending[len(p.pending)-1]
			p.pending = p.pending[:len(p.pending)-1]
			break
		}
	}
	now := p.s.Now()
	switch p.rng.Intn(5) {
	case 0: // a scatter
		for n := p.rng.Intn(4); n > 0; n-- {
			p.schedule(now + p.delta())
		}
	case 1: // one successor, so chains run on
		p.schedule(now + p.delta())
	case 2: // again at the time of a pending event (one a wrong queue
		// has let fall behind now is left to fail the order check)
		if len(p.pending) > 0 {
			t := p.at[p.pending[p.rng.Intn(len(p.pending))]]
			for n := 1 + p.rng.Intn(3); n > 0 && t >= now; n-- {
				p.schedule(t)
			}
		}
	case 3: // a burst at one later instant
		t := now + p.delta()
		for n := p.rng.Intn(4); n > 0; n-- {
			p.schedule(t)
		}
	}
}

// TestFiringOrderMatchesStableSortAcrossBuckets is
// TestFiringOrderMatchesStableSort where a bucketed queue can go wrong:
// schedules cross many buckets, wrap the ring and pass its horizon, and
// RunUntil deadlines fall in empty stretches, each followed by events
// scheduled between the deadline and the next pending event. A queue that
// moved its cursor on to that next event would file them behind it.
func TestFiringOrderMatchesStableSortAcrossBuckets(t *testing.T) {
	seeds := []int64{42, 123, 456}
	for seed := int64(1); seed <= 300; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		p := &spanProbe{rng: rand.New(rand.NewSource(seed)), quota: 3000}
		for n := 1 + p.rng.Intn(60); n > 0; n-- {
			p.schedule(p.delta())
		}
		for p.s.Pending() > 0 {
			switch p.rng.Intn(3) {
			case 0: // a few steps
				for n := p.rng.Intn(20); n > 0; n-- {
					p.s.Step()
				}
			case 1: // a deadline anywhere
				p.s.RunUntil(p.s.Now() + p.delta())
			case 2: // a deadline before the next event, then events up to it
				now, next := p.s.Now(), p.next()
				if next-now < 2 {
					continue
				}
				fired := len(p.fired)
				p.s.RunUntil(now + Time(p.rng.Int63n(int64(next-now))))
				if len(p.fired) != fired {
					t.Fatalf("seed %d: RunUntil(%d) fired event %d, due at %d", seed, p.s.Now(), p.fired[fired], p.at[p.fired[fired]])
				}
				now = p.s.Now()
				for n := 1 + p.rng.Intn(4); n > 0; n-- {
					p.schedule(now + Time(p.rng.Int63n(int64(next-now)+1)))
				}
				if p.rng.Intn(2) == 0 {
					p.schedule(now)
				}
			}
		}
		if len(p.fired) != len(p.at) || len(p.pending) != 0 {
			t.Fatalf("seed %d: fired %d of %d scheduled", seed, len(p.fired), len(p.at))
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

// succession keeps a fixed number of events pending: each, when it fires,
// schedules its successor a delta ahead, the deltas taken in turn from a
// table of 2^k.
type succession struct {
	s      *Scheduler
	deltas []Duration
	i      int
}

func (m *succession) Fire(uint32, uint64) {
	m.i++
	m.s.ScheduleAfter(m.deltas[m.i&(len(m.deltas)-1)], Callback{Target: m})
}

// deltaOctaves is how far ahead of now the thirteen kernels of the serving
// benchmark's miss_serve workload schedule their events, measured over
// their 1.78 M events at scale 0.005 with about 300 pending on average:
// deltaOctaves[k] events in 10 000 are 2^(k-1) to 2^k ps ahead, the few
// nearer than 2^8 ps folded into octave 9. No event is scheduled at now.
var deltaOctaves = [...]int{9: 15, 10: 132, 11: 629, 12: 1532, 13: 286, 14: 1042,
	15: 1541, 16: 2849, 17: 1441, 18: 393, 19: 27, 20: 53, 21: 53}

// BenchmarkSchedulerMix measures the queue alone at the kernels' shape:
// 300 events pending, each scheduling its successor a delta ahead drawn
// from deltaOctaves. One op is one event dispatched and one scheduled.
func BenchmarkSchedulerMix(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var octaves []int
	for k, n := range deltaOctaves {
		for ; n > 0; n-- {
			octaves = append(octaves, k)
		}
	}
	deltas := make([]Duration, 1<<12)
	for i := range deltas {
		k := octaves[rng.Intn(len(octaves))]
		deltas[i] = Duration(1)<<(k-1) + Duration(rng.Int63n(int64(1)<<(k-1)))
	}
	var s Scheduler
	m := &succession{s: &s, deltas: deltas}
	for i := 0; i < 300; i++ {
		s.ScheduleAfter(deltas[rng.Intn(len(deltas))], Callback{Target: m})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// TestBucketKeepsKeyOrder feeds one bucket keys in any order — equal times
// with seqs out of order, as an event moved in from the overflow heap
// brings, and earlier times after later ones — and reads the bucket back:
// head to tail, it must list every key once, in (at, seq) order. The
// scheduler's own traffic never sends a bucket's tail an older seq at the
// same time, so only this test sees a tail check that compares at alone.
func TestBucketKeepsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 500; round++ {
		var s Scheduler
		n := 1 + rng.Intn(12)
		s.nodes = make([]node, n)
		base := Time(rng.Intn(1<<24)) &^ (1<<bucketShift - 1)
		for _, i := range rng.Perm(n) {
			s.file(uint32(i), key{at: base + Time(rng.Intn(3)), seq: uint64(1+rng.Intn(4*n))<<8 | uint64(i)})
		}
		r := int64(base>>bucketShift) & wheelMask
		slot := s.head[r]
		for i := 1; ; i++ {
			if slot == s.tail[r] || i > n {
				if i != n {
					t.Fatalf("round %d: the bucket lists %d of %d keys", round, i, n)
				}
				break
			}
			k, next := s.nodes[slot].key, s.nodes[s.nodes[slot].next].key
			if !k.before(next) {
				t.Fatalf("round %d: the bucket lists (%d, %d) before (%d, %d)", round, k.at, k.seq, next.at, next.seq)
			}
			slot = s.nodes[slot].next
		}
	}
}
