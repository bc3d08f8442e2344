package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"littleslaw/internal/service"
	"littleslaw/internal/trace"
)

// handleWatchPost routes POST /v1/watch: named streams pin to the ring
// owner of their name (so GET /v1/watch/{stream} subscribers find the
// broker), ad-hoc streams join the least-loaded backend.
func (p *Proxy) handleWatchPost(w http.ResponseWriter, r *http.Request) error {
	body, err := service.ReadBody(r)
	if err != nil {
		return err
	}
	key := ""
	// A loose parse on purpose: only the stream name routes; full
	// validation is the backend's job.
	var probe struct {
		Stream string `json:"stream"`
	}
	if json.Unmarshal(body, &probe) == nil && probe.Stream != "" {
		key = service.StreamAffinityKey(probe.Stream)
	}
	return p.forwardStream(w, r, key, key != "", body)
}

// handleWatchSubscribe routes GET /v1/watch/{stream} to the stream's
// pinned owner.
func (p *Proxy) handleWatchSubscribe(w http.ResponseWriter, r *http.Request) error {
	return p.forwardStream(w, r, service.StreamAffinityKey(r.PathValue("stream")), true, nil)
}

// forwardStream proxies a long-lived NDJSON/SSE connection: raw
// passthrough with a per-chunk flush, outside the unary client (which
// buffers whole responses and retries — wrong on both counts for a
// stream). Stream lifetimes do not feed the backend's occupancy
// estimator: a healthy stream lasts as long as its client, which says
// nothing about backend load. They are accounted by llproxy_stream_clients
// (and, like every request inside the proxy, by its own in-flight gauge).
func (p *Proxy) forwardStream(w http.ResponseWriter, r *http.Request, key string, pinned bool, body []byte) error {
	if err := p.forwardFault(r); err != nil {
		return err
	}
	cands, decision := p.candidates(key, pinned)
	if len(cands) == 0 {
		return p.shedNoBackend()
	}
	b := cands[0]
	trace.Add(r.Context(), "route", decision+" "+b.Name, 0, 0)
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.URL+forwardPath(r), bytes.NewReader(body))
	if err != nil {
		return err
	}
	for _, k := range []string{"Accept", "Content-Type"} {
		if v := r.Header.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	connStart := time.Now()
	resp, err := b.httpc.Do(req)
	if err != nil {
		if r.Context().Err() == nil {
			b.failure(p.cfg.Now())
		}
		p.requests.With(b.Name, "error").Inc()
		trace.Add(r.Context(), "forward", b.Name+" error", 0, time.Since(connStart))
		return service.Fail(http.StatusBadGateway, fmt.Errorf("stream to %s failed: %v", b.Name, err), 0)
	}
	defer resp.Body.Close()
	b.success()
	p.requests.With(b.Name, "stream").Inc()
	// Connection setup only: the stream's lifetime is its client's, not a
	// latency worth decomposing (mirrors the occupancy exclusion above).
	trace.Add(r.Context(), "forward", b.Name+" stream", 0, time.Since(connStart))

	service.HardenHeaders(w.Header(), resp.Header.Get("Content-Type"), true)
	w.WriteHeader(resp.StatusCode)

	gauge := p.streamClients.With(b.Name)
	gauge.Inc()
	defer gauge.Dec()

	rc := http.NewResponseController(w)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil
			}
			// Flush per chunk: events must reach the subscriber as they
			// happen, not when a relay buffer fills.
			rc.Flush()
		}
		if rerr != nil {
			return nil
		}
	}
}
