package tracefile

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"littleslaw/internal/cpu"
	"littleslaw/internal/memsys"
	"littleslaw/internal/platform"
	"littleslaw/internal/sim"
	"littleslaw/internal/workloads"
)

func TestHeaderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Header{LineBytes: 96}); err == nil {
		t.Fatal("bad line size accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("NOTTRACE00000000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	ops := []cpu.Op{
		{Addr: 0x1000, Kind: memsys.Load, GapCycles: 3.5, Work: 1},
		{Addr: 0xdeadbeef00, Kind: memsys.Store, GapCycles: 0, Work: 0.25, Async: true},
		{Addr: 0x42, Kind: memsys.PrefetchL2, GapCycles: 120},
		{Addr: 0x99, Kind: memsys.Load, Barrier: true, GapCycles: 900.25},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(ops) {
		t.Fatalf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header.LineBytes != 64 {
		t.Fatalf("header line = %d", r.Header.LineBytes)
	}
	for i, want := range ops {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Addr != want.Addr || got.Kind != want.Kind || got.Barrier != want.Barrier || got.Async != want.Async {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
		if diff := got.GapCycles - want.GapCycles; diff > 0.1 || diff < -0.1 {
			t.Fatalf("record %d gap = %v, want %v", i, got.GapCycles, want.GapCycles)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{LineBytes: 64})
	w.Write(cpu.Op{Addr: 1, Kind: memsys.Load})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-3] // chop the last record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated record not detected: %v", err)
	}
}

func TestGeneratorAdapter(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{LineBytes: 64})
	for i := 0; i < 10; i++ {
		w.Write(cpu.Op{Addr: uint64(i) * 64, Kind: memsys.Load, Work: 1})
	}
	w.Flush()
	r, _ := NewReader(&buf)
	g := NewGenerator(r)
	n := 0
	for {
		_, ok := g.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 10 || g.Err() != nil {
		t.Fatalf("replayed %d records, err=%v", n, g.Err())
	}
}

// TestRecordedWorkloadReplaysThroughSim records an ISx thread's trace and
// replays it through the simulator: the replay must move the same number
// of demand operations as the live generator.
func TestRecordedWorkloadReplaysThroughSim(t *testing.T) {
	p := platform.SKL()
	w, _ := workloads.ByName("ISx")
	cfg := w.Config(p, 1, 0.05)

	var buf bytes.Buffer
	tw, err := NewWriter(&buf, Header{LineBytes: p.LineBytes})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Record(tw, cfg.NewGen(0, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recorded nothing")
	}

	data := buf.Bytes()
	res, err := sim.RunContext(context.Background(), sim.Config{
		Plat:   p,
		Cores:  2,
		Window: cfg.Window,
		NewGen: func(core, thread int) cpu.Generator {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return NewGenerator(r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandLoads == 0 {
		t.Fatal("replay produced no demand loads")
	}
}

// Property: arbitrary op sequences survive the round trip within the
// format's quantization (gap 1/16 cycle, work 1/256).
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%64 + 1
		ops := make([]cpu.Op, n)
		for i := range ops {
			ops[i] = cpu.Op{
				Addr:      rng.Uint64(),
				Kind:      memsys.Kind(rng.Intn(4)),
				GapCycles: float64(rng.Intn(4000)) / 16,
				Work:      float64(rng.Intn(1024)) / 256,
				Barrier:   rng.Intn(2) == 0,
				Async:     rng.Intn(2) == 0,
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Header{LineBytes: 128})
		if err != nil {
			return false
		}
		for _, op := range ops {
			if err := w.Write(op); err != nil {
				return false
			}
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range ops {
			got, err := r.Read()
			if err != nil {
				return false
			}
			if got.Addr != want.Addr || got.Kind != want.Kind ||
				got.Barrier != want.Barrier || got.Async != want.Async {
				return false
			}
			if d := got.GapCycles - want.GapCycles; d > 1.0/16+1e-9 || d < -1.0/16-1e-9 {
				return false
			}
			if d := got.Work - want.Work; d > 1.0/256+1e-9 || d < -1.0/256-1e-9 {
				return false
			}
		}
		_, err = r.Read()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
