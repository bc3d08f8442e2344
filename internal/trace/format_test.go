package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fmtSummary is the format Summary replaced, spelled out with fmt.
func fmtSummary(spans []Span, total time.Duration) string {
	var b strings.Builder
	for _, sp := range spans {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		b.WriteString(sp.Stage)
		if sp.Note != "" {
			b.WriteByte('=')
			b.WriteString(sp.Note)
		}
		fmt.Fprintf(&b, " %.1f+%.1f", float64(sp.Queue)/ms, float64(sp.Service)/ms)
	}
	if b.Len() > 0 {
		b.WriteString("; ")
	}
	fmt.Fprintf(&b, "total %.1fms", float64(total)/ms)
	return b.String()
}

// TestSummaryMatchesFormat pins the X-Trace-Summary header byte for byte,
// across the rounding edges of %.1f.
func TestSummaryMatchesFormat(t *testing.T) {
	durs := []time.Duration{0, 1, 49_999, 50_000, 150_000, 250_000, 999_999, time.Millisecond,
		1_049_999, 1_050_000, 12_345_678, time.Second, time.Hour, -1}
	var spans []Span
	for i, d := range durs {
		note := ""
		if i%3 == 1 {
			note = "hit"
		}
		spans = append(spans, Span{Stage: fmt.Sprintf("s%d", i), Note: note, Queue: d, Service: durs[len(durs)-1-i]})
	}
	for n := 0; n <= len(spans); n++ {
		for _, total := range durs {
			tr := &Trace{spans: spans[:n], total: total, done: true}
			if got, want := tr.Summary(), fmtSummary(spans[:n], total); got != want {
				t.Fatalf("Summary() = %q, want %q", got, want)
			}
		}
	}
}

// TestTraceIDMatchesFormat pins minted ids to "%08x%08x" of the sink's
// prefix and counter.
func TestTraceIDMatchesFormat(t *testing.T) {
	edges := []uint32{0, 1, 9, 10, 15, 16, 0xabc, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}
	for _, p := range edges {
		for _, n := range edges {
			if got, want := hexID(p, n), fmt.Sprintf("%08x%08x", p, n); got != want {
				t.Fatalf("hexID(%#x, %#x) = %q, want %q", p, n, got, want)
			}
		}
	}
	s := NewSink(4)
	for i := uint32(1); i <= 3; i++ {
		if got, want := s.Start("r").ID(), fmt.Sprintf("%08x%08x", s.prefix, i); got != want {
			t.Fatalf("Start id %d = %q, want %q", i, got, want)
		}
	}
}
