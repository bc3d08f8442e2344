package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"littleslaw/internal/events"
)

func TestMSHRAllocateCompleteCycle(t *testing.T) {
	var sched events.Scheduler
	m := NewMSHR(&sched, 4)
	if m.Full() || m.InFlight() != 0 {
		t.Fatal("fresh MSHR not empty")
	}
	m.Allocate(Line(1))
	if !m.Outstanding(Line(1)) || m.InFlight() != 1 {
		t.Fatal("allocation not tracked")
	}
	called := 0
	m.Coalesce(Line(1), events.Call(func() { called++ }))
	m.Coalesce(Line(1), events.Call(func() { called++ }))
	sched.RunUntil(100)
	for _, w := range m.Complete(Line(1)) {
		w.Fire()
	}
	if called != 2 {
		t.Fatalf("waiters called %d times, want 2", called)
	}
	if m.Outstanding(Line(1)) {
		t.Fatal("entry survived completion")
	}
	if m.Stats.Allocations != 1 || m.Stats.Coalesced != 2 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

func TestMSHRFull(t *testing.T) {
	var sched events.Scheduler
	m := NewMSHR(&sched, 2)
	m.Allocate(Line(1))
	m.Allocate(Line(2))
	if !m.Full() {
		t.Fatal("MSHR with cap 2 and 2 entries not full")
	}
	m.NoteFull()
	if m.Stats.FullEvents != 1 {
		t.Fatal("full event not recorded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("allocate on full MSHR did not panic")
		}
	}()
	m.Allocate(Line(3))
}

func TestMSHRDuplicateAllocatePanics(t *testing.T) {
	var sched events.Scheduler
	m := NewMSHR(&sched, 2)
	m.Allocate(Line(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate allocate did not panic")
		}
	}()
	m.Allocate(Line(1))
}

func TestMSHRCompleteUnknownPanics(t *testing.T) {
	var sched events.Scheduler
	m := NewMSHR(&sched, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("complete on unknown line did not panic")
		}
	}()
	m.Complete(Line(9))
}

func TestMSHROccupancyTracking(t *testing.T) {
	var sched events.Scheduler
	m := NewMSHR(&sched, 8)
	sched.At(0, func() { m.Allocate(Line(1)) })
	sched.At(100, func() { m.Allocate(Line(2)) })
	sched.At(200, func() { m.Complete(Line(1)) })
	sched.At(400, func() { m.Complete(Line(2)) })
	sched.Run()
	// occ: 1 over [0,100), 2 over [100,200), 1 over [200,400) => 500/400
	if got := m.Occ.Mean(400); got != 1.25 {
		t.Fatalf("mean occupancy = %v, want 1.25", got)
	}
}

func TestMSHRResetPreservesInFlight(t *testing.T) {
	var sched events.Scheduler
	m := NewMSHR(&sched, 8)
	m.Allocate(Line(1))
	sched.RunUntil(100)
	m.ResetStats()
	sched.RunUntil(300)
	if got := m.Occ.Mean(sched.Now()); got != 1.0 {
		t.Fatalf("occupancy after reset = %v, want 1.0 (entry still in flight)", got)
	}
	m.Complete(Line(1))
}

// Property: under random allocate/complete traffic respecting the protocol,
// in-flight never exceeds capacity and Little's law holds on the drained
// window.
func TestMSHRInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sched events.Scheduler
		cp := 1 + rng.Intn(16)
		m := NewMSHR(&sched, cp)
		live := map[Line]bool{}
		now := events.Time(0)
		for i := 0; i < 300; i++ {
			now += events.Time(rng.Intn(20))
			line := Line(rng.Intn(40))
			sched.RunUntil(now)
			if live[line] {
				if rng.Intn(2) == 0 {
					m.Coalesce(line, events.Callback{})
				} else {
					m.Complete(line)
					delete(live, line)
				}
				continue
			}
			if m.Full() {
				m.NoteFull()
				continue
			}
			m.Allocate(line)
			live[line] = true
			if m.InFlight() > cp {
				return false
			}
		}
		for line := range live {
			now += events.Time(rng.Intn(20))
			sched.RunUntil(now)
			m.Complete(line)
		}
		return m.Occ.LittleResidual(now) < 1e-9 && m.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
