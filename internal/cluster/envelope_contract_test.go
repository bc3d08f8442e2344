package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"littleslaw/internal/experiments"
	"littleslaw/internal/faults"
	"littleslaw/internal/platform"
	"littleslaw/internal/queueing"
	"littleslaw/internal/runner"
	"littleslaw/internal/service"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const contractGolden = "testdata/envelope_contract.golden"

// contractRecorder renders each response the way the contract golden holds
// it: status, sorted headers and compacted body. Date and Content-Length are
// left out, and the trace headers are recorded as present, not by value.
// Backend host:ports become backend0, backend1 (in the proxy's name order),
// and the values that drift with the clock or the build (n_avg readings,
// the version) are masked.
type contractRecorder struct {
	t        *testing.T
	client   *http.Client
	out      strings.Builder
	backends []string
}

var (
	contractNAvg    = regexp.MustCompile(`"(\w*navg)":[-+0-9.eE]+`)
	contractVersion = regexp.MustCompile(`"version":"[^"]*"`)
)

func (c *contractRecorder) do(name, method, target, body string, headersOnly bool) {
	c.t.Helper()
	req, err := http.NewRequest(method, target, strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	fmt.Fprintf(&c.out, "== %s\n", name)
	resp, err := c.client.Do(req)
	if err != nil {
		var uerr *url.Error
		if errors.As(err, &uerr) {
			err = uerr.Err
		}
		fmt.Fprintf(&c.out, "transport: %v\n\n", err)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatalf("%s: reading body: %v", name, err)
	}
	fmt.Fprintf(&c.out, "status: %d\n", resp.StatusCode)
	keys := make([]string, 0, len(resp.Header))
	for k := range resp.Header {
		if k != "Date" && k != "Content-Length" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := strings.Join(resp.Header.Values(k), ", ")
		switch k {
		case "X-Trace-Id", "X-Trace-Summary", "X-Backend-Trace-Id":
			v = "<present>"
		}
		fmt.Fprintf(&c.out, "%s: %s\n", k, v)
	}
	if !headersOnly {
		var compact bytes.Buffer
		if json.Compact(&compact, raw) == nil {
			raw = compact.Bytes()
		}
		s := contractNAvg.ReplaceAllString(string(raw), `"$1":"<navg>"`)
		s = contractVersion.ReplaceAllString(s, `"version":"<version>"`)
		for i, b := range c.backends {
			s = strings.ReplaceAll(s, b, fmt.Sprintf("backend%d", i))
		}
		fmt.Fprintf(&c.out, "body: %s\n", s)
	}
	c.out.WriteString("\n")
}

// contractServer boots one llserved on a real listener with an isolated
// fault injector armed with rules, paper-anchor profiles (unless cfg names
// its own) and a private runner.
func contractServer(t *testing.T, cfg service.Config, rules ...faults.Rule) (*service.Server, string) {
	t.Helper()
	inj, err := faults.New(1, rules...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultInjector = inj
	cfg.SimRunner = runner.New(64)
	if cfg.ProfileFor == nil {
		cfg.ProfileFor = func(_ context.Context, p *platform.Platform) (*queueing.Curve, error) {
			return experiments.PaperProfileFor(p)
		}
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// contractProxy boots an llproxy over backends with probing off and its
// own injector, served on a real listener.
func contractProxy(t *testing.T, backends []string, rules ...faults.Rule) (*Proxy, *faults.Injector, string) {
	t.Helper()
	inj, err := faults.New(1, rules...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Backends:      backends,
		ProbeInterval: -1,
		FaultInjector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, inj, ts.URL
}

// TestEnvelopeContract pins what a client sees at the request boundary of
// both binaries — status, headers minus ids, body — across success, bad
// input, injected errors and panics, admission and brownout sheds, drain and
// the admin routes. Regenerate with go test ./internal/cluster -run
// TestEnvelopeContract -update; a diff in the golden is a change in
// behaviour and must be one the change meant.
func TestEnvelopeContract(t *testing.T) {
	const measured = `{"platform":"SKL","measurement":{"bandwidth_gbs":80}}`
	c := &contractRecorder{t: t, client: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}}

	// ---- llserved ----
	_, main := contractServer(t, service.Config{},
		faults.Rule{Site: "handler.advise", Kind: faults.KindError, P: 1})
	c.do("llserved GET /v1/platforms", "GET", main+"/v1/platforms", "", false)
	c.do("llserved POST /v1/analyze (measurement)", "POST", main+"/v1/analyze", measured, false)
	c.do("llserved POST /v1/analyze (bad JSON)", "POST", main+"/v1/analyze", "not json", false)
	c.do("llserved GET /v1/platforms?timeout=bogus", "GET", main+"/v1/platforms?timeout=bogus", "", false)
	c.do("llserved POST /v1/advise (handler.advise=error)", "POST", main+"/v1/advise", measured, false)
	c.do("llserved GET /metrics", "GET", main+"/metrics", "", true)
	c.do("llserved POST /v1/brownout (pin B3)", "POST", main+"/v1/brownout", `{"pin":"B3"}`, true)
	c.do("llserved POST /v1/tune (B3 pinned)", "POST", main+"/v1/tune", `{"platform":"SKL","workload":"ISx","scale":0.02}`, false)

	_, panicky := contractServer(t, service.Config{},
		faults.Rule{Site: "handler.platforms", Kind: faults.KindPanic, P: 1})
	c.do("llserved GET /v1/platforms (handler.platforms=panic)", "GET", panicky+"/v1/platforms", "", false)

	// Limiter shed: one request parked in the profile source holds the only
	// slot, and with no queue the next arrival sheds.
	entered, release := make(chan struct{}, 1), make(chan struct{})
	_, shedding := contractServer(t, service.Config{
		LimitCeiling:    1,
		LimitQueue:      -1,
		DisableBrownout: true,
		ProfileFor: func(ctx context.Context, p *platform.Platform) (*queueing.Curve, error) {
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return experiments.PaperProfileFor(p)
		},
	})
	held := make(chan error, 1)
	go func() {
		resp, err := http.Post(shedding+"/v1/analyze", "application/json", strings.NewReader(measured))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		held <- err
	}()
	<-entered
	c.do("llserved POST /v1/analyze (limiter shed)", "POST", shedding+"/v1/analyze", measured, false)
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("held request: %v", err)
	}

	drained, draining := contractServer(t, service.Config{})
	drained.BeginDrain()
	c.do("llserved draining POST /v1/analyze", "POST", draining+"/v1/analyze", measured, false)
	c.do("llserved draining POST /v1/analyze?timeout=bogus", "POST", draining+"/v1/analyze?timeout=bogus", measured, false)
	c.do("llserved draining POST /v1/watch", "POST", draining+"/v1/watch", `{"platform":"SKL","samples":[{"t_s":0,"bandwidth_gbs":80}]}`, false)
	c.do("llserved draining GET /healthz", "GET", draining+"/healthz", "", false)

	// ---- llproxy over two llserved ----
	_, b0 := contractServer(t, service.Config{})
	_, b1 := contractServer(t, service.Config{})
	p, inj, proxy := contractProxy(t, []string{b0, b1})
	c.backends = p.Backends()
	c.do("llproxy POST /v1/analyze (relayed)", "POST", proxy+"/v1/analyze", measured, false)
	if err := inj.Configure(1, []faults.Rule{{Site: ForwardFaultSite, Kind: faults.KindError, P: 1}}); err != nil {
		t.Fatal(err)
	}
	c.do("llproxy POST /v1/analyze (cluster.forward=error)", "POST", proxy+"/v1/analyze", measured, false)
	if err := inj.Configure(1, []faults.Rule{{Site: ForwardFaultSite, Kind: faults.KindPanic, P: 1}}); err != nil {
		t.Fatal(err)
	}
	c.do("llproxy POST /v1/analyze (cluster.forward=panic)", "POST", proxy+"/v1/analyze", measured, false)
	if err := inj.Configure(1, nil); err != nil {
		t.Fatal(err)
	}
	c.do("llproxy POST /v1/analyze (oversize body)", "POST", proxy+"/v1/analyze", strings.Repeat(" ", service.MaxBodyBytes+1), false)
	c.do("llproxy GET /v1/faults (fan-out)", "GET", proxy+"/v1/faults", "", false)
	c.do("llproxy GET /healthz", "GET", proxy+"/healthz", "", false)

	// Failover: one of two backends answers every analyze with an injected
	// 503. Whichever of them the request reaches first, the proxy relays
	// the healthy one's 200.
	_, sick := contractServer(t, service.Config{},
		faults.Rule{Site: "handler.analyze", Kind: faults.KindError, P: 1})
	_, well := contractServer(t, service.Config{})
	_, _, failoverURL := contractProxy(t, []string{sick, well})
	c.do("llproxy POST /v1/analyze (one backend handler.analyze=error)", "POST", failoverURL+"/v1/analyze", measured, false)

	open, _, openURL := contractProxy(t, []string{b0, b1},
		faults.Rule{Site: ProbeFaultSite, Kind: faults.KindError, P: 1})
	for i := 0; i < 3; i++ {
		open.ProbeAll(t.Context())
	}
	c.do("llproxy POST /v1/analyze (every breaker open)", "POST", openURL+"/v1/analyze", measured, false)

	closing, _, closingURL := contractProxy(t, []string{b0, b1})
	closing.BeginDrain()
	c.do("llproxy draining POST /v1/analyze", "POST", closingURL+"/v1/analyze", measured, false)
	c.do("llproxy draining POST /v1/watch", "POST", closingURL+"/v1/watch", `{"stream":"s1"}`, false)
	c.do("llproxy draining GET /healthz", "GET", closingURL+"/healthz", "", false)

	got := c.out.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(contractGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(contractGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(contractGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("envelope contract changed (regenerate with -update only if the change is meant):\n%s",
			caseDiff(string(want), got))
	}
}

// caseDiff prints, for every case whose rendering differs between two
// goldens, both renderings.
func caseDiff(want, got string) string {
	w, g := strings.Split(want, "\n\n"), strings.Split(got, "\n\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wc, gc string
		if i < len(w) {
			wc = w[i]
		}
		if i < len(g) {
			gc = g[i]
		}
		if wc != gc {
			fmt.Fprintf(&b, "--- want\n%s\n+++ got\n%s\n", wc, gc)
		}
	}
	return b.String()
}
