package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"littleslaw/internal/platform"
	"littleslaw/internal/runner"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden from this run")

// surfaceOps is how many operations of core 0, thread 0 each case hashes.
const surfaceOps = 256

// surfacePlatforms are the machines the surface is pinned on: the three
// paper platforms plus the two derived ones the experiments use.
func surfacePlatforms() []*platform.Platform {
	return append(platform.All(), platform.HBM3E(), platform.KNLCacheMode())
}

// writeSurfaceCase renders everything observable about one (workload,
// variant, threads, scale) case on p into h: the identity, the recipe
// inputs, the sim.Config scalars, the runner key and the head of the
// operation stream.
func writeSurfaceCase(h hash.Hash, w Workload, p *platform.Platform, threads int, scale float64) {
	cfg := w.Config(p, threads, scale)
	fmt.Fprintf(h, "%s|%s|%v|%+v|%+v\n", w.Name(), w.Routine(), w.RandomAccess(), w.Variant(), w.Capabilities(p, threads))
	fmt.Fprintf(h, "plat=%s cores=%d threads=%d window=%d gap=%g share=%g exp=%g fp=%s gen=%v hier=%v\n",
		cfg.Plat.Name, cfg.Cores, cfg.ThreadsPerCore, cfg.Window, cfg.GapScale, cfg.SMTShare, cfg.SMTExponent,
		cfg.Fingerprint, cfg.NewGen != nil, cfg.ConfigureHierarchy != nil)
	key, cacheable, err := runner.KeyOf(cfg)
	fmt.Fprintf(h, "key=%s cacheable=%v err=%v\n", key.String(), cacheable, err)
	g := cfg.NewGen(0, 0)
	var buf [34]byte
	for i := 0; i < surfaceOps; i++ {
		op, ok := g.Next()
		if !ok {
			fmt.Fprintf(h, "end@%d\n", i)
			break
		}
		b := binary.LittleEndian.AppendUint64(buf[:0], op.Addr)
		b = binary.LittleEndian.AppendUint64(b, uint64(op.Kind))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.GapCycles))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(op.Work))
		b = append(b, boolByte(op.Barrier), boolByte(op.Async))
		h.Write(b)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestWorkloadSurface pins every workload's observable surface — name,
// routine, access class, capabilities, simulation config, runner key and
// the head of its operation stream — across all 2^6 boolean variants ×
// prefetch distance {0, 8} × threads 1..SMTWays × scale {0.005, 0.1} on
// each platform, as one digest per (workload, platform) in
// testdata/surface.golden. Refresh with go test ./internal/workloads -run
// TestWorkloadSurface -update, and only for an intended change.
func TestWorkloadSurface(t *testing.T) {
	var got []string
	for _, base := range append(All(), Extras()...) {
		for _, p := range surfacePlatforms() {
			h := sha256.New()
			cases := 0
			for bits := 0; bits < 1<<6; bits++ {
				for _, dist := range []int{0, 8} {
					v := Variant{
						Vectorized:       bits&1 != 0,
						SWPrefetchL2:     bits&2 != 0,
						SWPrefetchL1:     bits&4 != 0,
						PrefetchDistance: dist,
						Tiled:            bits&8 != 0,
						UnrollJam:        bits&16 != 0,
						NoFuse:           bits&32 != 0,
					}
					w := base.WithVariant(v)
					for threads := 1; threads <= p.SMTWays; threads++ {
						for _, scale := range []float64{0.005, 0.1} {
							writeSurfaceCase(h, w, p, threads, scale)
							cases++
						}
					}
				}
			}
			got = append(got, fmt.Sprintf("%s %s cases=%d sha256=%x", base.Name(), p.Name, cases, h.Sum(nil)[:12]))
		}
	}

	path := filepath.Join("testdata", "surface.golden")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 {
			want[fields[0]+" "+fields[1]] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, line := range got {
		fields := strings.Fields(line)
		id := fields[0] + " " + fields[1]
		if want[id] != line {
			t.Errorf("%s on %s: surface moved\n got: %s\nwant: %s", fields[0], fields[1], line, want[id])
		}
		delete(want, id)
	}
	for id := range want {
		t.Errorf("%s: in the golden but no longer produced", id)
	}
}
