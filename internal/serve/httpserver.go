package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	_ "unsafe" // for go:linkname

	"repro/internal/obs"
)

// Server serves HTTP/1.1 on a listener with the shape of net/http.Server
// (Serve, Shutdown, Handler, BaseContext), as one loop per keep-alive
// connection on one goroutine: read a request from the connection's
// buffered reader, run the handler, write the reply, repeat. net/http's
// server also starts and aborts a background read on every request to see
// a client leave, and hands each reply through a per-request writer chain;
// on a small loopback service those cost more than the handler does.
//
// A reply is buffered in a buffer the connection reuses, and one that the
// handler neither flushes nor grows past 2 KiB goes out as status line,
// headers, Content-Length and body in one write. The first Flush, or a body
// that passes 2 KiB before the handler returns, sends the headers with
// chunked framing, as net/http does at the same points; what a client reads
// is byte for byte what net/http writes, Date aside (serveconn_test.go
// holds the two servers to that). A client that leaves is seen once its
// request streams (flushes) or has run for watchAfter: then a watcher
// peeks at the connection, and an error cancels the request's context,
// while a byte that arrives stays buffered for the next request.
// Informational (1xx) replies, trailers, Hijack and the ResponseController
// deadlines are not supported, and the request context carries no
// http.ServerContextKey or http.LocalAddrContextKey value.
//
// The zero value serves http.DefaultServeMux with background contexts.
type Server struct {
	// Handler answers every request; nil means http.DefaultServeMux.
	Handler http.Handler
	// BaseContext, if set, returns the context every request's context on
	// ln derives from, as in net/http.
	BaseContext func(ln net.Listener) context.Context

	closing atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	wake      chan struct{} // set by Shutdown; an exiting conn signals it
}

const (
	// headerReadLimit bounds the bytes read from a connection while one
	// request's header is read: net/http's default MaxHeaderBytes plus its
	// allowance for the bufio reader's slop.
	headerReadLimit = http.DefaultMaxHeaderBytes + 4096
	// replyBuffer is how much of a reply body is held before its headers
	// go out: net/http's bufferBeforeChunkingSize.
	replyBuffer = 2048
	// maxPostHandlerReadBytes is how much of an unread request body is
	// read past a finished handler to keep the connection, as in net/http.
	maxPostHandlerReadBytes = 256 << 10
	// watchAfter is how long a request runs before a watcher looks for
	// its client leaving (a request that flushes is watched at once).
	watchAfter = time.Millisecond
	// rstAvoidanceDelay is how long a connection closed mid-request-body
	// lingers half-closed, so the client reads the reply before a reset.
	rstAvoidanceDelay = 500 * time.Millisecond
	// shutdownPollMax caps the interval at which Shutdown looks for idle
	// connections.
	shutdownPollMax = 500 * time.Millisecond
)

// Serve accepts connections on ln and serves each on its own goroutine. It
// returns http.ErrServerClosed after Shutdown, or the listener's error.
func (s *Server) Serve(ln net.Listener) error {
	if !s.trackListener(ln, true) {
		return http.ErrServerClosed
	}
	defer s.trackListener(ln, false)
	defer ln.Close()
	base := context.Background()
	if s.BaseContext != nil {
		base = s.BaseContext(ln)
	}
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := &conn{s: s, nc: nc, created: time.Now().Unix()}
		s.mu.Lock()
		if s.conns == nil {
			s.conns = make(map[*conn]struct{})
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve(base)
	}
}

// Shutdown stops the listeners, closes idle connections at once and each
// busy one once its reply is written, and waits until none is left or ctx
// is done. Like net/http's, it does not cancel request contexts: cancel the
// BaseContext first to end streams that would otherwise hold it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.mu.Lock()
	var err error
	for ln := range s.listeners {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if s.wake == nil {
		s.wake = make(chan struct{}, 1)
	}
	wake := s.wake
	s.mu.Unlock()
	poll := time.Millisecond
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		if s.closeIdle() {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		case <-timer.C:
			poll = min(2*poll, shutdownPollMax)
			timer.Reset(poll)
		}
	}
}

func (s *Server) trackListener(ln net.Listener, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !add {
		delete(s.listeners, ln)
		return true
	}
	if s.closing.Load() {
		return false
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[ln] = struct{}{}
	return true
}

// closeIdle closes the connections waiting for a request and reports
// whether none is left. A connection that has not sent its first request
// gets five seconds to send it, as in net/http.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now().Unix()
	for c := range s.conns {
		st := c.state.Load()
		if st == stateActive || st == stateNew && c.created >= now-5 {
			continue
		}
		c.nc.Close()
		delete(s.conns, c)
	}
	return len(s.conns) == 0
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	if s.wake != nil {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
}

// Connection states, as Shutdown sees them.
const (
	stateNew    = iota // accepted, no request read yet
	stateActive        // a request is being read or served
	stateIdle          // waiting for the next request
)

// conn is one client connection and everything its loop reuses from one
// request to the next.
type conn struct {
	s       *Server
	nc      net.Conn
	remote  string
	created int64 // Unix seconds
	state   atomic.Uint32

	ctx        context.Context // per connection; cancelled when it closes
	cancelConn context.CancelFunc
	lr         limitReader
	br         *bufio.Reader
	bw         *bufio.Writer
	werr       error // the first write error on the connection
	lastMethod string
	h2Upgrade  bool // the request is "PRI * HTTP/2.0", as net/http serves it

	w    response
	body reqBody

	// The disconnect watcher, guarded by mu. It starts once the request
	// wants watching (it flushed, or has run for watchAfter) and its body
	// is done with the buffered reader, and is stopped before the next
	// read.
	mu        sync.Mutex
	cancelReq context.CancelFunc
	reqStart  time.Time
	wantWatch bool
	bodyDone  bool
	reqDone   bool
	watchDone chan struct{} // non-nil while a watcher runs
	// timer checks the request in flight for its age. It is not stopped
	// when a request ends: it re-arms for the next one's remaining time,
	// or lapses when the connection is idle. Arming and stopping it per
	// request would wake an idle P for each request, at a cost of about a
	// tenth of the service's CPU.
	timer *time.Timer
	armed bool
}

func (c *conn) serve(base context.Context) {
	inFlight := false
	defer func() {
		if p := recover(); p != nil && p != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, false)]
			obs.Logger("serve").Error("panic serving request",
				"remote", c.remote, "panic", fmt.Sprint(p), "stack", string(buf))
		}
		if inFlight {
			c.cancelReq()
			c.stopWatch()
			c.body.Close()
		}
		c.bw.Flush()
		c.nc.Close()
		c.cancelConn()
		c.s.untrack(c)
	}()
	if ra := c.nc.RemoteAddr(); ra != nil {
		c.remote = ra.String()
	}
	c.ctx, c.cancelConn = context.WithCancel(base)
	c.lr.r = c.nc
	c.br = bufio.NewReaderSize(&c.lr, 4<<10)
	c.bw = bufio.NewWriterSize(connWriter{c}, 4<<10)
	c.timer = time.AfterFunc(time.Hour, c.timeUp)
	c.timer.Stop()
	defer c.timer.Stop()
	h := c.s.Handler
	if h == nil {
		h = http.DefaultServeMux
	}

	for first := true; ; first = false {
		if !first {
			c.state.Store(stateIdle)
			if c.s.closing.Load() {
				return
			}
			// Wait for the next request, as net/http does before it reads.
			if _, err := c.br.Peek(4); err != nil {
				return
			}
			c.state.Store(stateActive)
		}
		req, err := c.readRequest()
		if err != nil {
			c.replyReadError(err)
			return
		}
		c.state.Store(stateActive)

		ctx, cancel := context.WithCancel(c.ctx)
		req = req.WithContext(ctx)
		req.RemoteAddr = c.remote
		w, b := &c.w, &c.body
		w.reset(c, req)
		b.reset(c, req)
		hasBody := req.Body != http.NoBody
		if hasBody {
			req.Body = b
		}
		c.mu.Lock()
		c.cancelReq, c.reqStart = cancel, time.Now()
		c.wantWatch, c.bodyDone, c.reqDone = false, !hasBody, false
		if !c.armed {
			c.armed = true
			c.timer.Reset(watchAfter)
		}
		c.mu.Unlock()

		if expect := req.Header.Get("Expect"); hasToken(expect, "100-continue") {
			if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
				b.expect, w.canContinue = true, true
			}
		} else if expect != "" {
			w.header.Set("Connection", "close")
			w.WriteHeader(http.StatusExpectationFailed)
			w.finish()
			c.stopWatch()
			b.Close()
			cancel()
			return
		}

		inFlight = true
		if req.RequestURI == "*" && req.Method == http.MethodOptions {
			serveGlobalOptions(w, req)
		} else {
			h.ServeHTTP(w, req)
		}
		inFlight = false
		cancel()
		w.finish()
		c.stopWatch()
		b.Close()
		if !w.reuse() {
			if w.bodyLimitHit || b.earlyClose {
				c.closeWriteAndWait()
			}
			return
		}
	}
}

// errTooLarge is a request header past headerReadLimit.
var errTooLarge = errors.New("http: request too large")

// statusError is a request net/http refuses with its own status and text.
type statusError struct {
	code int
	text string
}

func (e statusError) Error() string { return http.StatusText(e.code) + ": " + e.text }

// readRequest reads the next request header, and checks it as net/http's
// server does: its version, its Host header and its header fields.
func (c *conn) readRequest() (*http.Request, error) {
	c.lr.remain = headerReadLimit
	if c.lastMethod == http.MethodPost {
		// Tolerate the CRLF old clients send after a POST body (RFC 7230 §3).
		peek, _ := c.br.Peek(4)
		c.br.Discard(numLeadingCRorLF(peek))
	}
	req, err := readRequest(c.br)
	if err != nil {
		if c.lr.remain <= 0 {
			return nil, errTooLarge
		}
		return nil, err
	}
	if req.ProtoMajor != 1 && !(req.ProtoMajor == 2 && req.ProtoMinor == 0 &&
		req.Method == "PRI" && req.RequestURI == "*") {
		return nil, statusError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	c.lastMethod = req.Method
	c.lr.remain = math.MaxInt64
	hosts := req.Header["Host"]
	c.h2Upgrade = req.Method == "PRI" && len(req.Header) == 0 && req.URL.Path == "*" && req.Proto == "HTTP/2.0"
	if req.ProtoAtLeast(1, 1) && len(hosts) == 0 && !c.h2Upgrade && req.Method != http.MethodConnect {
		return nil, statusError{http.StatusBadRequest, "missing required Host header"}
	}
	if len(hosts) == 1 && !validHost(hosts[0]) {
		return nil, statusError{http.StatusBadRequest, "malformed Host header"}
	}
	// The parser has already refused control bytes in values, but not a
	// space in a name.
	for k := range req.Header {
		if !validFieldName(k) {
			return nil, statusError{http.StatusBadRequest, "invalid header name"}
		}
	}
	delete(req.Header, "Host")
	return req, nil
}

// readRequest is the request parser net/http's server calls: unlike
// http.ReadRequest it keeps the Host header, which the server checks.
// net/http keeps the symbol linkable (go.dev/issue/67401).
//
//go:linkname readRequest net/http.readRequest
func readRequest(b *bufio.Reader) (*http.Request, error)

// replyReadError answers a request that could not be read, as net/http
// does: straight on the connection, which then closes.
func (c *conn) replyReadError(err error) {
	const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var se statusError
	switch {
	case err == errTooLarge:
		const msg = "431 Request Header Fields Too Large"
		io.WriteString(c.nc, "HTTP/1.1 "+msg+errorHeaders+msg)
		c.closeWriteAndWait()
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
		// The coding is not echoed back: it is the client's text.
		io.WriteString(c.nc, "HTTP/1.1 501 Not Implemented"+errorHeaders+"Unsupported transfer encoding")
	case isCommonNetReadError(err):
		// The client left or the connection broke: nobody to answer.
	case errors.As(err, &se):
		msg := strconv.Itoa(se.code) + " " + se.Error()
		io.WriteString(c.nc, "HTTP/1.1 "+msg+errorHeaders+msg)
	default:
		const msg = "400 Bad Request"
		io.WriteString(c.nc, "HTTP/1.1 "+msg+errorHeaders+msg)
	}
}

func isCommonNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	oe, ok := err.(*net.OpError)
	return ok && oe.Op == "read"
}

// closeWriteAndWait flushes the reply, half-closes the connection and
// lingers, so a client still sending its request body reads the reply
// before the close resets the connection.
func (c *conn) closeWriteAndWait() {
	c.bw.Flush()
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	time.Sleep(rstAvoidanceDelay)
}

// timeUp is the timer: it asks for the watcher once the request in flight
// has run for watchAfter, re-arms for a younger one, and lapses on an idle
// connection.
func (c *conn) timeUp() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = false
	if c.reqDone {
		return
	}
	if age := time.Since(c.reqStart); age < watchAfter {
		c.armed = true
		c.timer.Reset(watchAfter - age)
		return
	}
	c.wantWatch = true
	c.tryWatch()
}

// watchNow asks for the watcher at once: the request streams.
func (c *conn) watchNow() {
	c.mu.Lock()
	c.wantWatch = true
	c.tryWatch()
	c.mu.Unlock()
}

// bodyEOF records that the request body has been read to its end, so the
// buffered reader is free for the watcher.
func (c *conn) bodyEOF() {
	c.mu.Lock()
	c.bodyDone = true
	c.tryWatch()
	c.mu.Unlock()
}

// tryWatch starts the watcher once the request wants it and its body is
// done; c.mu is held.
func (c *conn) tryWatch() {
	if !c.wantWatch || !c.bodyDone || c.reqDone || c.watchDone != nil {
		return
	}
	done := make(chan struct{})
	c.watchDone = done
	go c.watch(c.cancelReq, done)
}

// watch blocks in a one-byte peek: an error other than stopWatch's
// deadline means the client left, and cancels the request's context. A
// byte that arrives stays in the buffered reader for the next request.
func (c *conn) watch(cancel context.CancelFunc, done chan struct{}) {
	defer close(done)
	if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		cancel()
	}
}

// stopWatch ends the request's watch, waiting out a running watcher.
func (c *conn) stopWatch() {
	c.mu.Lock()
	c.reqDone = true
	done := c.watchDone
	c.watchDone = nil
	c.mu.Unlock()
	if done != nil {
		c.nc.SetReadDeadline(time.Unix(1, 0))
		<-done
		c.nc.SetReadDeadline(time.Time{})
	}
}

// limitReader is the connection as the buffered reader sees it: reads stop
// at remain bytes, which bounds a request header.
type limitReader struct {
	r      io.Reader
	remain int64
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > l.remain {
		p = p[:l.remain]
	}
	n, err := l.r.Read(p)
	l.remain -= int64(n)
	return n, err
}

// connWriter is the connection as the buffered writer sees it. A failed
// write is kept, fails the connection's reuse and cancels its contexts.
type connWriter struct{ c *conn }

func (cw connWriter) Write(p []byte) (int, error) {
	n, err := cw.c.nc.Write(p)
	if err != nil && cw.c.werr == nil {
		cw.c.werr = err
		cw.c.cancelConn()
	}
	return n, err
}

// serveGlobalOptions answers "OPTIONS *" as net/http does.
func serveGlobalOptions(w *response, r *http.Request) {
	w.header.Set("Content-Length", "0")
	if r.ContentLength != 0 {
		// Up to 4 KiB of body is read and dropped; a longer one closes the
		// connection, as http.MaxBytesReader would.
		if n, _ := io.CopyN(io.Discard, r.Body, 4<<10+1); n > 4<<10 {
			w.closeAfter, w.bodyLimitHit = true, true
			w.header.Set("Connection", "close")
		}
	}
}

// response is the http.ResponseWriter of one request; its connection
// reuses it, with its header map and body buffer, for the next.
type response struct {
	c      *conn
	req    *http.Request
	header http.Header
	status int

	wroteHeader bool // the status is set and the header snapshotted
	committed   bool // the status line and header are in c.bw
	chunking    bool
	handlerDone bool
	canContinue bool // a body read may still send 100 Continue
	flushed     bool
	closeAfter  bool // close the connection after this reply
	// bodyLimitHit: more request body was left than is worth reading.
	bodyLimitHit     bool
	wants10KeepAlive bool
	wantsClose       bool

	written       int64
	contentLength int64 // -1 until known
	buf           []byte

	// The header as WriteHeader saw it: keys sorted, and each key's values.
	keys []string
	vals [][]string

	dateSec int64
	date    string
	scratch [20]byte // formats numbers without an allocation
}

func (w *response) reset(c *conn, req *http.Request) {
	h := w.header
	if h == nil {
		h = make(http.Header)
	} else {
		clear(h)
	}
	connHdr := req.Header["Connection"]
	*w = response{
		c: c, req: req, header: h, contentLength: -1,
		buf: w.buf[:0], keys: w.keys[:0], vals: w.vals[:0],
		dateSec: w.dateSec, date: w.date,
		closeAfter:       c.h2Upgrade,
		wants10KeepAlive: req.ProtoMajor == 1 && req.ProtoMinor == 0 && len(connHdr) > 0 && hasToken(connHdr[0], "keep-alive"),
		wantsClose:       req.Close || len(connHdr) > 0 && hasToken(connHdr[0], "close"),
	}
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	w.canContinue = false
	w.wroteHeader = true
	w.status = code
	for k := range w.header {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	for _, k := range w.keys {
		w.vals = append(w.vals, w.header[k])
	}
	if cl := w.get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.contentLength = v
		}
	}
}

// get returns key's first value in the snapshotted header.
func (w *response) get(key string) string {
	if i, ok := slices.BinarySearch(w.keys, key); ok && len(w.vals[i]) > 0 {
		return w.vals[i][0]
	}
	return ""
}

// has reports whether the snapshotted header holds key.
func (w *response) has(key string) bool {
	_, ok := slices.BinarySearch(w.keys, key)
	return ok
}

func (w *response) Write(p []byte) (int, error) {
	w.canContinue = false
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowedForStatus(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.contentLength != -1 && w.written > w.contentLength {
		return 0, http.ErrContentLength
	}
	// The buffer fills and drains as net/http's 2 KiB bufio.Writer in
	// front of its chunk writer does, so the headers go out at the same
	// byte and the chunks have the same sizes.
	n := len(p)
	if len(w.buf)+len(p) <= replyBuffer {
		w.buf = append(w.buf, p...)
		return n, nil
	}
	if len(w.buf) > 0 {
		k := replyBuffer - len(w.buf)
		w.buf = append(w.buf, p[:k]...)
		p = p[k:]
		if err := w.drain(); err != nil {
			return n - len(p), err
		}
	}
	if len(p) > replyBuffer {
		return n, w.send(p)
	}
	w.buf = append(w.buf, p...)
	return n, nil
}

// FlushError sends the headers and whatever body is buffered; the reply
// is chunked from here on, and the connection is watched for the client
// leaving.
func (w *response) FlushError() error {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	err := w.drain()
	if ferr := w.c.bw.Flush(); err == nil {
		err = ferr
	}
	if !w.flushed {
		w.flushed = true
		w.c.watchNow()
	}
	return err
}

func (w *response) Flush() { _ = w.FlushError() }

// finish completes the reply once the handler has returned.
func (w *response) finish() {
	w.handlerDone = true
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	w.drain()
	if w.chunking {
		w.c.bw.WriteString("0\r\n\r\n")
	}
	w.c.bw.Flush()
}

// reuse reports whether the connection can read another request.
func (w *response) reuse() bool {
	switch {
	case w.closeAfter, w.c.werr != nil, w.c.body.earlyClose:
		return false
	case w.req.Method != http.MethodHead && w.contentLength != -1 &&
		bodyAllowedForStatus(w.status) && w.contentLength != w.written:
		return false // the handler wrote short of its Content-Length
	}
	return true
}

func (w *response) drain() error {
	err := w.send(w.buf)
	w.buf = w.buf[:0]
	return err
}

// send writes body bytes in the reply's framing, committing the header
// first; p is the body's start when it does.
func (w *response) send(p []byte) error {
	if !w.committed {
		w.commit(p)
	}
	if len(p) == 0 || w.req.Method == http.MethodHead {
		return nil
	}
	bw := w.c.bw
	if !w.chunking {
		_, err := bw.Write(p)
		return err
	}
	bw.Write(strconv.AppendInt(w.scratch[:0], int64(len(p)), 16))
	bw.WriteString("\r\n")
	bw.Write(p)
	_, err := bw.WriteString("\r\n")
	return err
}

// commit decides the reply's framing and whether the connection stays
// open, as net/http's chunkWriter.writeHeader does, and writes the status
// line and header into c.bw. p is the start of the body (all of it when
// the handler is done): it is what Content-Type is sniffed from, and its
// length is the Content-Length of a finished reply.
func (w *response) commit(p []byte) {
	w.committed = true
	c, req := w.c, w.req
	keepAlives := !c.s.closing.Load()
	isHEAD := req.Method == http.MethodHead
	te := w.get("Transfer-Encoding")
	hasTE := te != ""
	bodyOK := bodyAllowedForStatus(w.status)
	connHdr := w.get("Connection")

	autoCL := false
	if w.handlerDone && !hasTE && bodyOK && !w.has("Content-Length") && (!isHEAD || len(p) > 0) {
		w.contentLength = int64(len(p))
		autoCL = true
	}
	if w.wants10KeepAlive && keepAlives && w.get("Content-Length") != "" && connHdr == "keep-alive" {
		w.closeAfter = false
	}
	hasCL := w.contentLength != -1
	setConn := ""
	if w.wants10KeepAlive && (isHEAD || hasCL || !bodyOK) {
		if !w.has("Connection") {
			setConn = "keep-alive"
		}
	} else if !req.ProtoAtLeast(1, 1) || w.wantsClose {
		w.closeAfter = true
	}
	if connHdr == "close" || !keepAlives {
		w.closeAfter = true
	}

	// An unread request body is read off the connection before the reply,
	// or the connection is given up, as net/http decides.
	delCL, delTE, delConn, delType := false, false, false, false
	b := &c.body
	if b.expect && !b.readEOF {
		w.closeAfter = true
	}
	if req.ContentLength != 0 && !w.closeAfter {
		discard, tooBig := false, false
		switch {
		case b.expect:
		case b.closed, b.failed:
			if !b.sawEOF {
				w.closeAfter = true
			}
		case b.remain >= maxPostHandlerReadBytes:
			tooBig = true
		default:
			discard = true
		}
		if discard {
			_, err := io.CopyN(io.Discard, b, maxPostHandlerReadBytes+1)
			switch err {
			case nil:
				tooBig = true
			case http.ErrBodyReadAfterClose:
			case io.EOF:
				if b.Close() != nil {
					w.closeAfter = true
				}
			default:
				w.closeAfter = true
			}
		}
		if tooBig {
			w.closeAfter, w.bodyLimitHit = true, true
			delConn, connHdr, setConn = true, "", "close"
		}
	}

	ctype := ""
	if bodyOK {
		if w.get("Content-Encoding") == "" && !w.has("Content-Type") && !hasTE && len(p) > 0 {
			ctype = http.DetectContentType(p)
		}
	} else {
		delCL, delTE, delType = true, true, w.status == http.StatusNotModified
	}
	if hasCL && hasTE && te != "identity" {
		delCL, hasCL = true, false
	}
	switch {
	case isHEAD || !bodyOK || w.status == http.StatusNoContent, hasCL:
		delTE = true
	case req.ProtoAtLeast(1, 1):
		if hasTE && te == "identity" {
			w.closeAfter, delTE = true, true
		} else {
			w.chunking = true
			if te == "chunked" {
				delTE = true
			}
		}
	default:
		w.closeAfter, delTE = true, true
	}
	if w.chunking {
		delCL = true
	}
	if w.closeAfter && (!keepAlives || !hasToken(connHdr, "close")) {
		delConn = true
		if req.ProtoAtLeast(1, 1) {
			setConn = "close"
		}
	}

	bw := c.bw
	writeStatusLine(bw, req.ProtoAtLeast(1, 1), w.status, w.scratch[:0])
	for i, k := range w.keys {
		switch {
		case k == "Content-Length" && delCL, k == "Transfer-Encoding" && delTE,
			k == "Connection" && delConn, k == "Content-Type" && delType,
			!validFieldName(k):
			continue
		}
		for _, v := range w.vals[i] {
			writeField(bw, k, textproto.TrimString(newlineToSpace.Replace(v)))
		}
	}
	// Then the fields the server adds, in net/http's order.
	if !w.has("Date") {
		writeField(bw, "Date", w.dateValue())
	}
	if autoCL {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(w.scratch[:0], w.contentLength, 10))
		bw.WriteString("\r\n")
	}
	if ctype != "" {
		writeField(bw, "Content-Type", ctype)
	}
	if setConn != "" {
		writeField(bw, "Connection", setConn)
	}
	if w.chunking {
		writeField(bw, "Transfer-Encoding", "chunked")
	}
	bw.WriteString("\r\n")
}

func writeField(bw *bufio.Writer, key, value string) {
	bw.WriteString(key)
	bw.WriteString(": ")
	bw.WriteString(value)
	bw.WriteString("\r\n")
}

// dateValue is the Date header's value, formatted once per second.
func (w *response) dateValue() string {
	now := time.Now()
	if sec := now.Unix(); sec != w.dateSec || w.date == "" {
		w.dateSec = sec
		w.date = now.UTC().Format(http.TimeFormat)
	}
	return w.date
}

var newlineToSpace = strings.NewReplacer("\n", " ", "\r", " ")

func writeStatusLine(bw *bufio.Writer, is11 bool, code int, scratch []byte) {
	if is11 {
		bw.WriteString("HTTP/1.1 ")
	} else {
		bw.WriteString("HTTP/1.0 ")
	}
	text := http.StatusText(code)
	if text == "" {
		fmt.Fprintf(bw, "%03d status code %d\r\n", code, code)
		return
	}
	bw.Write(strconv.AppendInt(scratch, int64(code), 10))
	bw.WriteByte(' ')
	bw.WriteString(text)
	bw.WriteString("\r\n")
}

// bodyAllowedForStatus reports whether a reply with this status may carry
// a body (RFC 7230 §3.3).
func bodyAllowedForStatus(status int) bool {
	switch {
	case status >= 100 && status <= 199:
		return false
	case status == http.StatusNoContent, status == http.StatusNotModified:
		return false
	}
	return true
}

// reqBody is the request body a handler reads, over the body http.ReadRequest
// framed. It sends 100 Continue on the first read when the client asked
// for it, tells the watcher when the body is done, and on Close reads a
// short remainder off the connection so it can serve the next request.
type reqBody struct {
	c       *conn
	src     io.ReadCloser
	remain  int64 // unread bytes of a Content-Length body; -1 if chunked
	closing bool  // the connection closes after this request: Close reads nothing
	expect  bool  // the client waits for 100 Continue

	sawEOF     bool // the body was read to its end
	failed     bool // a read failed: its framing is broken
	readEOF    bool // the handler read it to its end
	closed     bool
	earlyClose bool // Close gave up on the remainder: the connection closes
}

func (b *reqBody) reset(c *conn, req *http.Request) {
	*b = reqBody{c: c, src: req.Body, remain: req.ContentLength,
		closing: req.ContentLength >= 0 && req.Close}
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if w := &b.c.w; b.expect && w.canContinue {
		w.canContinue = false
		b.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		b.c.bw.Flush()
	}
	n, err := b.read(p)
	if err == io.EOF {
		b.readEOF = true
	}
	return n, err
}

func (b *reqBody) read(p []byte) (int, error) {
	n, err := b.src.Read(p)
	if b.remain > 0 {
		b.remain -= int64(n)
	}
	switch {
	case b.sawEOF:
	case err == io.EOF, err == io.ErrUnexpectedEOF && b.remain >= 0:
		// A Content-Length body cut short has still met the connection's
		// end: net/http's body counts that as seen, and so does Close.
		b.sawEOF = true
		b.c.bodyEOF()
	case err != nil:
		b.failed = true
	}
	return n, err
}

// Close reads up to maxPostHandlerReadBytes of what the handler left, so
// the connection can be reused; past that it gives up (earlyClose).
func (b *reqBody) Close() error {
	if b.closed || b.src == http.NoBody {
		return nil
	}
	var err error
	switch {
	case b.sawEOF, b.closing:
	case b.remain > maxPostHandlerReadBytes:
		b.earlyClose = true
	default:
		var n int64
		n, err = io.CopyN(io.Discard, rawBody{b}, maxPostHandlerReadBytes)
		if err == io.EOF {
			err = nil
		}
		if n == maxPostHandlerReadBytes {
			b.earlyClose = true
		}
	}
	b.closed = true
	return err
}

// rawBody reads a request body past its handler's view of it.
type rawBody struct{ b *reqBody }

func (r rawBody) Read(p []byte) (int, error) { return r.b.read(p) }

func numLeadingCRorLF(v []byte) (n int) {
	for _, b := range v {
		if b != '\r' && b != '\n' {
			break
		}
		n++
	}
	return n
}

// hasToken reports whether token appears in the comma- or
// space-separated header value v, ASCII case-insensitively.
func hasToken(v, token string) bool {
	if len(token) > len(v) || token == "" {
		return false
	}
	if v == token {
		return true
	}
	boundary := func(b byte) bool { return b == ' ' || b == ',' || b == '\t' }
	for sp := 0; sp <= len(v)-len(token); sp++ {
		if b := v[sp]; b != token[0] && b|0x20 != token[0] {
			continue
		}
		if sp > 0 && !boundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !boundary(v[end]) {
			continue
		}
		if strings.EqualFold(v[sp:sp+len(token)], token) {
			return true
		}
	}
	return false
}

// validFieldName reports whether v is a header field name (an RFC 7230
// token).
func validFieldName(v string) bool {
	if v == "" {
		return false
	}
	for i := 0; i < len(v); i++ {
		if !tokenByte(v[i]) {
			return false
		}
	}
	return true
}

func tokenByte(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
		strings.IndexByte("!#$%&'*+-.^_`|~", b) >= 0
}

// validHost reports whether h holds only bytes a Host header may carry, as
// leniently as net/http checks it.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		b := h[i]
		if !('a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' ||
			strings.IndexByte("!$%&'()*+,-.:;=[]_~", b) >= 0) {
			return false
		}
	}
	return true
}
