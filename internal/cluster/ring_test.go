package cluster

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"littleslaw/internal/service"
)

// fingerprintKeys fabricates n keys shaped like the affinity keys the proxy
// actually routes (runner-cache identities).
func fingerprintKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("run|KNL|fp%08x|c64|t%d|w2000|g1|wf0.1|ss0.6|se0.5", i*2654435761, 1+i%4)
	}
	return keys
}

// TestRingBalance pins the balance property the vnode count buys: across
// 1k realistic keys on three backends, no backend owns more than twice the
// least-loaded backend's share.
func TestRingBalance(t *testing.T) {
	names := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"}
	r := NewRing(names, 0)
	counts := map[string]int{}
	for _, k := range fingerprintKeys(1000) {
		owner := r.Owner(k)
		if owner == "" {
			t.Fatalf("no owner for %q", k)
		}
		counts[owner]++
	}
	if len(counts) != len(names) {
		t.Fatalf("only %d of %d backends own keys: %v", len(counts), len(names), counts)
	}
	lo, hi := 1<<30, 0
	for _, c := range counts {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi > 2*lo {
		t.Fatalf("imbalance: max %d > 2x min %d (%v)", hi, lo, counts)
	}
}

// TestRingRemovalMovesOnlyOwnedKeys is the consistent-hash stability
// property: removing one backend moves exactly the keys it owned (~1/N of
// the keyspace) to new owners, and no other assignment changes.
func TestRingRemovalMovesOnlyOwnedKeys(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1"}
	full := NewRing(names, 0)
	reduced := NewRing(names[:2], 0)

	keys := fingerprintKeys(1000)
	moved := 0
	for _, k := range keys {
		before, after := full.Owner(k), reduced.Owner(k)
		if before == "c:1" {
			moved++
			if after == "c:1" {
				t.Fatalf("key %q still owned by removed backend", k)
			}
			continue
		}
		if after != before {
			t.Fatalf("key %q moved %s -> %s though its owner never left", k, before, after)
		}
	}
	// ~1/3 of keys belonged to the removed node; allow generous slack for
	// hash variance, but the movement must be a minority of the keyspace.
	if moved < len(keys)/6 || moved > len(keys)/2 {
		t.Fatalf("moved %d of %d keys; want roughly 1/3", moved, len(keys))
	}
}

// TestRingOwnerWhereMatchesMembershipChange: skipping an ineligible backend
// (breaker open) must assign every key exactly as a ring without that
// backend would — failover routing and membership rehash agree.
func TestRingOwnerWhereMatchesMembershipChange(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1"}
	full := NewRing(names, 0)
	reduced := NewRing([]string{"a:1", "c:1"}, 0)
	eligible := func(name string) bool { return name != "b:1" }
	for _, k := range fingerprintKeys(500) {
		got, ok := full.OwnerWhere(k, eligible)
		if !ok {
			t.Fatalf("no eligible owner for %q", k)
		}
		if want := reduced.Owner(k); got != want {
			t.Fatalf("key %q: OwnerWhere skipping b:1 = %s, reduced ring = %s", k, got, want)
		}
	}
}

func TestRingDegenerateCases(t *testing.T) {
	if owner := NewRing(nil, 0).Owner("x"); owner != "" {
		t.Fatalf("empty ring returned owner %q", owner)
	}
	if _, ok := NewRing(nil, 0).OwnerWhere("x", nil); ok {
		t.Fatalf("empty ring claimed an owner")
	}
	one := NewRing([]string{"solo:1"}, 4)
	for _, k := range fingerprintKeys(10) {
		if owner := one.Owner(k); owner != "solo:1" {
			t.Fatalf("single-node ring returned %q", owner)
		}
	}
	if _, ok := one.OwnerWhere("x", func(string) bool { return false }); ok {
		t.Fatalf("fully ineligible ring claimed an owner")
	}
}

// TestRingHashMatchesFNV pins the ring's placement so a faster hashKey
// cannot move a single owner: hashKey must equal FNV-64a plus the
// splitmix64 finisher on keys of every length the proxy routes (among them
// a real 753-byte runner-cache identity), and the owners of 1 000 keys on
// a 3-backend ring must match testdata/ring_owners.golden (one digit per
// key, indexing the sorted backend names).
func TestRingHashMatchesFNV(t *testing.T) {
	req, err := service.DecodeAnalyzeRequest([]byte(`{"platform":"SKL","workload":"CoMD","scale":0.005123}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	long, ok := req.AffinityKey()
	if !ok || len(long) != 753 {
		t.Fatalf("analyze affinity key: %d bytes (ok %v), want a 753-byte runner identity", len(long), ok)
	}
	reference := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		x := h.Sum64()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	for _, k := range []string{"", "a", "a:1#0", "10.0.0.1:8080#159", "platform|KNL",
		service.StreamAffinityKey("s1"), fingerprintKeys(1)[0], long} {
		if got, want := hashKey(k), reference(k); got != want {
			t.Errorf("hashKey(%.40q…) = %#x, want %#x", k, got, want)
		}
	}

	names := []string{"127.0.0.1:18401", "127.0.0.1:18402", "127.0.0.1:18403"}
	r := NewRing(names, 0)
	var sb strings.Builder
	for i, k := range fingerprintKeys(1000) {
		sb.WriteByte('0' + byte(slices.Index(names, r.Owner(k))))
		if i%50 == 49 {
			sb.WriteByte('\n')
		}
	}
	const golden = "testdata/ring_owners.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("ring owners moved:\n got %s\nwant %s", got, want)
	}
}
