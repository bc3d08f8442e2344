package gen

import (
	"bytes"
	"strings"
	"testing"
)

// measured is how far into the measured sequence the tests look: more than
// a window draws at the rates the workloads run at, except hit_serve, whose
// draw table wraps and is covered by going past the wrap.
const measured = drawTable + 1000

func render(t *testing.T, workload string, seed int64) []byte {
	t.Helper()
	s, err := New(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range s.Setup() {
		buf.Write(r.Body)
		buf.WriteByte('\n')
	}
	buf.WriteString("--\n")
	for i := 0; i < measured; i++ {
		buf.Write(s.At(i).Body)
		buf.WriteByte('\n')
	}
	buf.WriteString(strings.Join(s.Tables, ","))
	return buf.Bytes()
}

// The request sequence is a pure function of (workload, seed): seed 42
// yields the same bytes twice, seed 123 a different sequence.
func TestSequenceIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range Workloads() {
		a, b := render(t, w, 42), render(t, w, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 generated two different sequences", w)
		}
		// tables_batch regenerates the paper's tables, a fixed input.
		if other := render(t, w, 123); bytes.Equal(a, other) != (w == TablesBatch) {
			t.Errorf("%s: seeds 42 and 123: same sequence = %t", w, bytes.Equal(a, other))
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := New("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// Keys index Repeated, and a body marked one-off really occurs once — the
// property miss_serve's "every request a miss" assertion stands on.
func TestKeysAndOneOffs(t *testing.T) {
	for _, w := range []string{HitServe, MissServe, FleetZipf} {
		for _, seed := range []int64{42, 123} {
			s, err := New(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			check := func(r Request) {
				if r.Key >= 0 {
					if r.Key >= len(s.Repeated()) || !bytes.Equal(s.Repeated()[r.Key], r.Body) {
						t.Fatalf("%s/%d: key %d does not index body %s", w, seed, r.Key, r.Body)
					}
					return
				}
				if seen[string(r.Body)] {
					t.Fatalf("%s/%d: one-off body %s generated twice", w, seed, r.Body)
				}
				seen[string(r.Body)] = true
			}
			for _, r := range s.Setup() {
				check(r)
			}
			for i := 0; i < measured; i++ {
				check(s.At(i))
			}
		}
	}
}

func TestHitServeMix(t *testing.T) {
	s, _ := New(HitServe, 42)
	if got := len(s.Setup()); got != full.hotBodies {
		t.Fatalf("set-up has %d bodies, want the %d hot ones", got, full.hotBodies)
	}
	hot := 0
	for i := 0; i < drawTable; i++ {
		r := s.At(i)
		if r.Key < 0 {
			t.Fatalf("request %d is a one-off; hit_serve must never reach the kernel", i)
		}
		if r.Key < full.hotBodies {
			hot++
		}
	}
	if share := float64(hot) / drawTable; share < 0.73 || share > 0.77 {
		t.Errorf("hot share %.3f, want 3 in 4", share)
	}
}

// Every block of miss_serve holds each platform x routine once, so a window
// sees the same cost mix wherever it ends.
func TestMissServeBlocks(t *testing.T) {
	s, _ := New(MissServe, 42)
	n := len(servingMix)
	if n%2 == 0 {
		t.Fatalf("a mix of %d: the median of an even mix falls between two kernels", n)
	}
	for b := 0; b < 50; b++ {
		seen := map[string]bool{}
		for i := b * n; i < (b+1)*n; i++ {
			r := s.At(i)
			if r.Key != -1 {
				t.Fatalf("request %d is repeated; miss_serve sends only never-seen keys", i)
			}
			body := string(r.Body)
			combo := body[:strings.Index(body, `"scale"`)]
			if want := string(workloadBody(servingMix[r.Class], "0")); !strings.HasPrefix(want, combo) {
				t.Fatalf("request %d: class %d is %s, body is %s", i, r.Class, want, body)
			}
			seen[combo] = true
		}
		if len(seen) != n {
			t.Fatalf("block %d holds %d distinct combos, want %d", b, len(seen), n)
		}
	}
}

// Set-up warms the whole population and the measured sequence draws only
// from it: every measured request can be a hit.
func TestFleetZipfMix(t *testing.T) {
	s, _ := New(FleetZipf, 42)
	warmed := map[int]bool{}
	for _, r := range s.Setup() {
		warmed[r.Key] = true
	}
	if len(s.Setup()) != full.fleetKeys || len(warmed) != full.fleetKeys {
		t.Fatalf("set-up sends %d requests for %d distinct keys, want %d of each", len(s.Setup()), len(warmed), full.fleetKeys)
	}
	for i := 0; i < measured; i++ {
		if r := s.At(i); !warmed[r.Key] {
			t.Fatalf("request %d has key %d, which set-up did not warm", i, r.Key)
		}
	}
}

func TestTablesBatchListsTheFiveTables(t *testing.T) {
	s, _ := New(TablesBatch, 123)
	if got := strings.Join(s.Tables, ","); got != "IV,V,VI,VII,IX" {
		t.Errorf("tables %s, want IV,V,VI,VII,IX", got)
	}
}
