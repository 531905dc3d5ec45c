package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
)

// shardTransport is the http.RoundTripper behind the default router→shard
// client (RemoteBackend calls and supervisor pings). It runs each exchange
// on the calling goroutine: take an idle keep-alive connection for the
// host (or dial one), write the request, flush, read the response headers.
// net/http.Transport instead hands every request to a per-connection write
// loop and takes the reply from a read loop, a thread handoff each way that
// costs as much as the loopback exchange itself.
//
// A connection goes back to its host's idle stack only after its reply
// body was read to EOF with nothing buffered past it, neither side asked
// to close, and the request's context had not fired; otherwise it is
// closed. Before reuse, an idle connection must pass alive. A request is
// never resent once its connection was handed out: a write may have
// reached the shard, and mutations must not apply twice (retry decides
// what to repeat, and repeats only idempotent calls).
//
// The zero value is ready to use. Each RemoteBackend and Supervisor owns
// one, so CloseIdleConnections closes only its own connections.
type shardTransport struct {
	dialer net.Dialer

	mu   sync.Mutex
	idle map[string][]*shardConn // host:port → idle stack, most recent last
}

// maxIdlePerShard caps the idle connections kept per shard address; a
// connection released beyond it is closed. Two is the stdlib's default
// per-host idle cap the router used before. A sequential client needs one
// (TestRemoteLifecyclesReuseShardConnections pins it); change the cap only
// with a workload that measures how many callers a shard sees at once.
const maxIdlePerShard = 2

// shardConn is one keep-alive connection with its buffered reader and
// writer, which outlive a single exchange.
type shardConn struct {
	net.Conn
	addr string
	br   *bufio.Reader
	bw   *bufio.Writer
}

// RoundTrip implements http.RoundTripper for plain-HTTP requests.
func (t *shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeRequestBody(req)
		return nil, fmt.Errorf("shard transport: unsupported scheme %q", req.URL.Scheme)
	}
	ctx := req.Context()
	c, err := t.conn(ctx, hostPort(req))
	if err != nil {
		closeRequestBody(req)
		return nil, err
	}
	// The watcher closes the connection if the context fires mid-exchange
	// or mid-body: a blocked write or read fails at once, with no
	// goroutine per call.
	stop := context.AfterFunc(ctx, func() { c.Close() })
	resp, err := c.exchange(req)
	if err != nil {
		stop()
		c.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	keep := !req.Close && !resp.Close
	if resp.Body == http.NoBody {
		t.release(c, stop() && keep)
		return resp, nil
	}
	resp.Body = &shardBody{ReadCloser: resp.Body, t: t, c: c, stop: stop, keep: keep}
	return resp, nil
}

// exchange writes req on the connection and reads the response headers.
// The whole request goes out before the reply is read, which suits the
// shard protocol: its requests are small JSON bodies, and its handlers
// decode the body before they answer.
func (c *shardConn) exchange(req *http.Request) (*http.Response, error) {
	if err := req.Write(c.bw); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return http.ReadResponse(c.br, req)
}

// conn returns a live idle connection to addr, or dials a new one under
// ctx. Idle connections that fail alive are closed and skipped.
func (t *shardTransport) conn(ctx context.Context, addr string) (*shardConn, error) {
	for {
		t.mu.Lock()
		stack := t.idle[addr]
		var c *shardConn
		if n := len(stack); n > 0 {
			c = stack[n-1]
			stack[n-1] = nil
			t.idle[addr] = stack[:n-1]
		}
		t.mu.Unlock()
		if c == nil {
			break
		}
		if alive(c.Conn) {
			return c, nil
		}
		c.Close()
	}
	nc, err := t.dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &shardConn{Conn: nc, addr: addr, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// release returns c to its host's idle stack when reuse holds, nothing is
// buffered past the reply, and the stack has room; otherwise it closes c.
func (t *shardTransport) release(c *shardConn, reuse bool) {
	if reuse && c.br.Buffered() == 0 {
		t.mu.Lock()
		if len(t.idle[c.addr]) < maxIdlePerShard {
			if t.idle == nil {
				t.idle = make(map[string][]*shardConn)
			}
			t.idle[c.addr] = append(t.idle[c.addr], c)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	c.Close()
}

// CloseIdleConnections closes every idle connection this transport holds
// (http.Client.CloseIdleConnections reaches it); connections in use are
// unaffected.
func (t *shardTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, stack := range idle {
		for _, c := range stack {
			c.Close()
		}
	}
}

// alive reports whether an idle connection can carry a request: a peek
// must find it open with nothing to read. EOF (the shard closed it or
// restarted), stray bytes, or any error mean it cannot.
func alive(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	return err == nil && peek(raw) == peekEmpty
}

// peekState is what a peek finds on a connection.
type peekState int

const (
	peekEmpty  peekState = iota // open, nothing to read
	peekData                    // bytes wait to be read
	peekClosed                  // EOF or an error: the peer left or the connection broke
)

// peek looks at a connection without reading from it or waiting: one
// non-blocking MSG_PEEK read of one byte.
func peek(raw syscall.RawConn) peekState {
	state := peekClosed
	err := raw.Read(func(fd uintptr) bool {
		var b [1]byte
		n, _, rerr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		switch {
		case rerr == nil && n > 0:
			state = peekData
		case errors.Is(rerr, syscall.EAGAIN):
			state = peekEmpty
		}
		return true // never wait for readability
	})
	if err != nil {
		return peekClosed
	}
	return state
}

// shardBody is a response body that releases its connection on Close.
// Like any response body, it is read and closed by one goroutine; cancel
// the request's context to abort a blocked read.
type shardBody struct {
	io.ReadCloser
	t    *shardTransport
	c    *shardConn
	stop func() bool
	keep bool
	eof  bool
	done bool
}

func (b *shardBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close releases the connection. Short of EOF the connection is closed
// without reading further: the framed body's own Close would drain it,
// which on an event stream never ends.
func (b *shardBody) Close() error {
	if b.done {
		return nil
	}
	b.done = true
	if b.eof {
		b.ReadCloser.Close()
	}
	b.t.release(b.c, b.stop() && b.keep && b.eof)
	return nil
}

// hostPort is the dial address of req's URL, with the scheme's default
// port filled in.
func hostPort(req *http.Request) string {
	if req.URL.Port() != "" {
		return req.URL.Host
	}
	return net.JoinHostPort(req.URL.Hostname(), "80")
}

func closeRequestBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
