package workloads

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestFingerprintMatchesFormat pins the hand-appended generator identity to
// the format it replaced, byte for byte: the runner keys and the proxy's
// routing keys are built from it.
func TestFingerprintMatchesFormat(t *testing.T) {
	scales := []float64{0, 0.1, 0.02, 1, 1e21, 1.25e-7, 0.1 + 0.2, math.Inf(1), math.Inf(-1)}
	n := 0
	for bits := 0; bits < 1<<6; bits++ {
		for _, dist := range []int{0, 8, -3} {
			v := Variant{
				Vectorized:       bits&1 != 0,
				SWPrefetchL2:     bits&2 != 0,
				SWPrefetchL1:     bits&4 != 0,
				PrefetchDistance: dist,
				Tiled:            bits&8 != 0,
				UnrollJam:        bits&16 != 0,
				NoFuse:           bits&32 != 0,
			}
			for _, scale := range scales {
				want := fmt.Sprintf("workloads/%s|%+v|scale=%g", "MiniGhost", v, scale)
				if got := fingerprint("MiniGhost", v, scale); got != want {
					t.Fatalf("fingerprint = %q, want %q", got, want)
				}
				n++
			}
		}
	}
	if n != 64*3*len(scales) {
		t.Fatalf("checked %d combinations", n)
	}
}

// TestVariantFieldCount fails when Variant gains a field: teach fingerprint
// to render it (and TestFingerprintMatchesFormat to vary it) first, or the
// new field silently drops out of every cache key.
func TestVariantFieldCount(t *testing.T) {
	if got := reflect.TypeOf(Variant{}).NumField(); got != 7 {
		t.Fatalf("Variant has %d fields, fingerprint renders 7", got)
	}
}
