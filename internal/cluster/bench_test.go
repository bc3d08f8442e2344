package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkProxyForward is the proxy hop alone: one analyze request through
// the proxy's handler, affinity key and all, forwarded over loopback to a
// stub backend that answers at once with a fixed hit-sized body. ns/op is
// the hop's cost plus the stub's trivial handler; -benchmem's allocs/op
// counts both ends, since they share the process.
//
//	go test -run '^$' -bench ProxyForward -benchmem ./internal/cluster/
func BenchmarkProxyForward(b *testing.B) {
	answer := []byte(`{"routine":"ISx","platform":"SKL","occupancy":9.4,"limiter":"L1",` +
		`"bandwidth_gbs":80.5,"latency_ns":112.3,"cached":true,"pad":"` + strings.Repeat("x", 640) + `"}`)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(answer)
	}))
	defer stub.Close()
	p, err := New(Config{Backends: []string{stub.URL}, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	h := p.Handler()
	body := []byte(`{"platform":"SKL","workload":"CoMD","scale":0.005123}`)

	b.ReportAllocs()
	for b.Loop() {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
