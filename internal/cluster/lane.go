// The lane: each backend's one path from the proxy. Every exchange with a
// backend — unary forwards, /v1/watch streams, /healthz probes, the
// /v1/faults fan-out — writes an HTTP/1.1 request on a keep-alive
// connection and parses the answer with http.ReadResponse in the caller's
// own goroutine: no transport goroutines to hand off to, no process-wide
// idle-connection cap, one small pool per backend.
//
// What keeps it honest:
//   - A connection idle longer than laneIdleTimeout is closed, not reused:
//     llserved closes its own idle connections later than that.
//   - A reused connection that fails before any response byte arrives was
//     closed by the backend while it sat idle; the exchange is replayed
//     once on a fresh dial. Unlike net/http, which replays a request it
//     has written only when the method is idempotent, the lane replays any
//     method: every request the proxy forwards is idempotent (analyses
//     only read; a /v1/faults POST sets a configuration). A fresh
//     connection is never replayed: its failure is the backend's.
//   - A caller's cancellation sets a past deadline on the connection, which
//     ends any blocked read or write at once. A connection whose cancel
//     fired never returns to the pool, nor does one after a "Connection:
//     close" answer or a body read only in part. Streams never return.
//   - Backends are http:// only: the lane speaks plain HTTP/1.1.
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// laneMaxIdle bounds the connections a lane keeps open between exchanges.
// It is above the default occupancy ceiling, so a backend the proxy keeps
// busy at the ceiling re-dials nothing.
const laneMaxIdle = 64

// laneIdleTimeout is how long a connection may sit in the pool: net/http's
// default, below llserved's own two-minute idle timeout, so the backend
// rarely closes a connection the lane still holds.
const laneIdleTimeout = 90 * time.Second

// laneDialTimeout bounds one connect, as net/http's default transport does.
const laneDialTimeout = 30 * time.Second

// aLongTimeAgo is the deadline a cancel sets: already past, so every
// blocked read and write on the connection returns at once.
var aLongTimeAgo = time.Unix(1, 0)

// lane is one backend's keep-alive connection pool.
type lane struct {
	addr string // host:port to dial
	host string // the Host header: the backend URL's host

	mu     sync.Mutex
	idle   []*laneConn // most recently used last
	closed bool
}

type laneConn struct {
	net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	since time.Time // when it last went idle
}

// exchange is one request to a backend. The lane sends Host and User-Agent,
// Content-Length when there is a body or the method is POST, and
// Content-Type and Accept when they are set.
type exchange struct {
	method string
	target string // request-URI: escaped path and query
	body   []byte

	contentType string
	accept      string
}

// reply is a backend's complete answer to a unary exchange.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// errStale marks a connection that failed before any response byte. On a
// reused connection that means the backend closed it while it sat idle.
var errStale = errors.New("cluster: connection closed before any response")

// do runs one unary exchange under deadline (and ctx): the whole answer is
// read, and the connection goes back to the pool when the exchange left it
// reusable.
func (l *lane) do(ctx context.Context, x *exchange, deadline time.Time) (*reply, error) {
	c, resp, stop, err := l.roundTrip(ctx, x, deadline)
	if err != nil {
		return nil, err
	}
	body, err := readBody(resp)
	// stop reports false once the cancel fired: its past deadline has
	// spoiled the connection even when the answer arrived whole.
	reusable := stop() && err == nil && !resp.Close && c.br.Buffered() == 0
	l.release(c, reusable)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: body}, nil
}

// open starts a streamed exchange: the caller reads resp.Body as the
// backend writes it, with no deadline but ctx's, and calls done once
// finished. A stream's connection is closed, never pooled.
func (l *lane) open(ctx context.Context, x *exchange) (resp *http.Response, done func(), err error) {
	c, resp, stop, err := l.roundTrip(ctx, x, time.Time{})
	if err != nil {
		return nil, nil, err
	}
	return resp, func() {
		stop()
		c.Close()
	}, nil
}

// roundTrip sends x and reads the answer's head, replaying once on a fresh
// dial when a reused connection turns out stale. On success the caller owns
// c and must call stop (which unhooks the cancel) before releasing it.
func (l *lane) roundTrip(ctx context.Context, x *exchange, deadline time.Time) (c *laneConn, resp *http.Response, stop func() bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	for _, v := range [...]string{x.method, x.target, x.contentType, x.accept} {
		if strings.ContainsAny(v, "\r\n") {
			return nil, nil, nil, fmt.Errorf("cluster: invalid request line or header %q", v)
		}
	}
	c = l.get()
	reused := c != nil
	for {
		if c == nil {
			if c, err = l.dial(ctx, deadline); err != nil {
				return nil, nil, nil, err
			}
		}
		c.SetDeadline(deadline)
		conn := c
		stop = context.AfterFunc(ctx, func() { conn.SetDeadline(aLongTimeAgo) })
		resp, err = c.send(l.host, x)
		if err == nil {
			return c, resp, stop, nil
		}
		stop()
		c.Close()
		if !(reused && errors.Is(err, errStale)) || ctx.Err() != nil {
			return nil, nil, nil, err
		}
		c, reused = nil, false
	}
}

// send writes x on c and reads the answer's head. A failure before the
// first response byte is wrapped in errStale — the connection was closed
// under it — unless a deadline ended the wait: a backend too slow to
// answer is not a closed connection.
func (c *laneConn) send(host string, x *exchange) (*http.Response, error) {
	err := x.write(c.bw, host)
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", errStale, err)
	}
	// ReadResponse reads only the request's method (a HEAD answer has no body).
	return http.ReadResponse(c.br, &http.Request{Method: x.method})
}

// write renders the request on bw and flushes it.
func (x *exchange) write(bw *bufio.Writer, host string) error {
	bw.WriteString(x.method)
	bw.WriteByte(' ')
	bw.WriteString(x.target)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	bw.WriteString("\r\nUser-Agent: Go-http-client/1.1\r\n")
	if len(x.body) > 0 || x.method == http.MethodPost {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(x.body)), 10))
		bw.WriteString("\r\n")
	}
	if x.contentType != "" {
		bw.WriteString("Content-Type: ")
		bw.WriteString(x.contentType)
		bw.WriteString("\r\n")
	}
	if x.accept != "" {
		bw.WriteString("Accept: ")
		bw.WriteString(x.accept)
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(x.body)
	return bw.Flush()
}

// readBody reads an answer's whole body: into one buffer of the declared
// length when there is one, else to the end of the chunked stream. An
// answer without a body (to HEAD, or a 204 or 304) reads as empty, whatever
// its Content-Length says.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.Body == http.NoBody {
		return nil, nil
	}
	if n := resp.ContentLength; n >= 0 && n <= 1<<20 {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(resp.Body)
}

// get pops the most recently used idle connection, or returns nil. Those
// idle past laneIdleTimeout — the oldest, at the front — are closed.
func (l *lane) get() *laneConn {
	cutoff := time.Now().Add(-laneIdleTimeout)
	l.mu.Lock()
	old := 0
	for old < len(l.idle) && l.idle[old].since.Before(cutoff) {
		old++
	}
	var expired []*laneConn
	if old > 0 {
		expired = append(expired, l.idle[:old]...)
		n := copy(l.idle, l.idle[old:])
		clear(l.idle[n:])
		l.idle = l.idle[:n]
	}
	var c *laneConn
	if n := len(l.idle); n > 0 {
		c = l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
	}
	l.mu.Unlock()
	for _, e := range expired {
		e.Close()
	}
	return c
}

// release pools c when reusable and there is room, and closes it otherwise.
func (l *lane) release(c *laneConn, reusable bool) {
	if reusable {
		l.mu.Lock()
		if !l.closed && len(l.idle) < laneMaxIdle {
			c.since = time.Now() // under the lock, so idle stays in since order
			l.idle = append(l.idle, c)
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
	}
	c.Close()
}

func (l *lane) dial(ctx context.Context, deadline time.Time) (*laneConn, error) {
	d := net.Dialer{Timeout: laneDialTimeout, Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", l.addr)
	if err != nil {
		return nil, err
	}
	return &laneConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// close shuts the idle connections; any in use close when their exchange
// ends.
func (l *lane) close() {
	l.mu.Lock()
	idle := l.idle
	l.idle, l.closed = nil, true
	l.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
