// The /v1/trace endpoints: per-request latency decomposition over HTTP.
// Every /v1/* response carries an X-Trace-Id; GET /v1/trace/{id} returns
// that request's waterfall (spans with queue/service split) from the
// bounded in-memory ring, and GET /v1/traces tails finished traces as
// NDJSON through the same drop-oldest broker machinery as /v1/watch — a
// slow tail reader loses old traces, never stalls the server.
//
// Both endpoints sit outside the admission controller and the tracer
// itself: the tool for diagnosing overload must answer during overload.
// They are Envelope methods, so llproxy serves its own ring through the
// identical wire contract.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"littleslaw/internal/brownout"
	"littleslaw/internal/trace"
)

// maxTraceTail caps ?max= and ?buffer= on GET /v1/traces.
const maxTraceTail = 1 << 16

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) error {
	// The tail is a long-lived non-critical stream: it sheds at B3+ like
	// the watch routes (the single-trace lookup stays admin-tier). It is
	// registered outside the envelope, so the tier check is local.
	if mode := s.observeMode(); mode >= brownout.B3 && !s.Draining() {
		w.Header().Set("X-Brownout-Mode", mode.String())
		return Fail(http.StatusServiceUnavailable,
			fmt.Errorf("brownout %s (%s): trace tail shed", mode, mode.Label()), brownoutRetryAfter)
	}
	// During drain the tail stays subscribable just long enough to hear
	// the terminal shutdown record: the broker is already closed, so a new
	// subscriber replays history (ending in the terminal record) and EOFs.
	return s.ServeTraceTail(w, r)
}

// ServeTrace answers GET /v1/trace/{id}: the JSON waterfall for one
// request, looked up in the envelope's ring. 404 once the ring evicted it.
func (e *Envelope) ServeTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := e.traces.Get(id)
	if !ok {
		e.WriteJSON(w, http.StatusNotFound,
			ErrorResponse{Error: fmt.Sprintf("trace %q not retained (ring holds the last %d)", id, e.traces.Len())})
		return
	}
	e.WriteJSON(w, http.StatusOK, t.View())
}

// ServeTraceTail answers GET /v1/traces: an NDJSON tail of finished
// traces. Retained history replays first, then live traces as requests
// finish. ?max=N closes the stream after N records (default: tail until
// the client disconnects); ?buffer=N sizes the subscriber's drop-oldest
// buffer exactly as on /v1/watch.
func (e *Envelope) ServeTraceTail(w http.ResponseWriter, r *http.Request) error {
	maxRecords, err := queryInt(r, "max", 0, maxTraceTail)
	if err != nil {
		return err
	}
	buffer, err := queryInt(r, "buffer", 256, maxTraceTail)
	if err != nil {
		return err
	}

	sub := e.tail.Subscribe(buffer)
	defer sub.Close()
	enc := json.NewEncoder(w)
	serveEvents(e, w, r, sub, "application/x-ndjson", maxRecords, func(rec trace.Record) error { return enc.Encode(rec) })
	return nil
}
