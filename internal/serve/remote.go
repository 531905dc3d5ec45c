package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
)

// This file implements the client half of the shard protocol: a
// RemoteBackend speaks to one shard process (a Manager behind ShardHandler,
// see shardapi.go) and fills one Router slot with it, so a Router can mix
// local and remote shards behind the unchanged HTTP API. Every call is a
// supervised failure domain: a per-op deadline bounds how long a hung shard
// can hold a request, idempotent operations (reads, stats, health) retry
// with exponential backoff and jitter, and a per-shard circuit breaker
// fails fast while the shard is down instead of burning a deadline per
// call. Transport failures surface as 503 apiErrors wrapping
// ErrShardUnavailable, with Retry-After set — the same backpressure shape
// degraded mode uses, so clients need one retry discipline, not two.

// ErrShardUnavailable marks operations that failed because a remote shard
// could not be reached (transport failure, timeout, or an open circuit
// breaker). It is wrapped in a 503 apiError with Retry-After.
var ErrShardUnavailable = errors.New("shard unavailable")

// ShardError describes one shard's failure during a scatter-gather
// operation, for partial-result payloads.
type ShardError struct {
	Shard int    `json:"shard"`
	Error string `json:"error"`
	// Breaker is the failing shard's circuit-breaker state, when the shard
	// is remote ("closed", "open", "half-open").
	Breaker string `json:"breaker,omitempty"`
}

// RemoteOptions tunes a RemoteBackend's failure handling. The zero value
// of any field selects its default.
type RemoteOptions struct {
	// Client issues the HTTP requests. The default is a client of the
	// backend's own shard transport (transport.go): each exchange runs on
	// the calling goroutine over a pooled keep-alive connection, an idle
	// connection is checked alive before reuse, and a request is never
	// resent once written. Tests inject a faultnet-wrapped one here.
	Client *http.Client
	// OpTimeout is the per-attempt deadline for unary operations (default
	// 5s); on an event stream it bounds only the wait for the headers.
	OpTimeout time.Duration
	// Retries is how many times idempotent operations are retried after a
	// transport failure (default 3; mutations never retry).
	Retries int
	// RetryBase is the base backoff delay, doubled per retry with jitter
	// (default 50ms).
	RetryBase time.Duration
	// BreakerThreshold is how many consecutive transport failures open the
	// circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// half-open probe (default 1s).
	BreakerCooldown time.Duration
}

// maxDrainBytes bounds how much of an unread reply body drainClose
// discards; a longer body closes the connection instead of being read
// forever.
const maxDrainBytes = 64 << 10

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Client == nil {
		o.Client = &http.Client{Transport: &shardTransport{}}
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	return o
}

// RemoteBackend is a Router's shard slot for one shard process reachable
// at an HTTP address. It implements the same shardSlot interface a local
// Manager does, so a Router treats local and remote shards uniformly;
// sessions it returns are thin proxies whose methods are remote calls.
type RemoteBackend struct {
	base    string
	client  *http.Client
	opts    RemoteOptions
	breaker *breaker
	// shard is the slot index under a Router (-1 outside one), stamped on
	// the client-side spans; retries counts backoff retries for the
	// per-shard metric (nil — a safe no-op — outside a Router).
	shard   int
	retries *obs.Counter
	// life ends on Close, and with it every proxy's watcher (see watch).
	life    context.Context
	endLife context.CancelFunc
}

// NewRemoteBackend returns a shard slot proxying to the shard server at
// addr (host:port or a full http:// URL).
func NewRemoteBackend(addr string, opts *RemoteOptions) *RemoteBackend {
	var o RemoteOptions
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	life, endLife := context.WithCancel(context.Background())
	return &RemoteBackend{
		base:    strings.TrimSuffix(addr, "/"),
		client:  o.Client,
		opts:    o,
		breaker: newBreaker(o.BreakerThreshold, o.BreakerCooldown),
		shard:   -1,
		life:    life,
		endLife: endLife,
	}
}

// Addr returns the shard server's base URL.
func (rb *RemoteBackend) Addr() string { return rb.base }

// BreakerState reports the circuit breaker's current state.
func (rb *RemoteBackend) BreakerState() string { return rb.breaker.State() }

// shardUnavailableRetryAfter is the Retry-After hint on 503s for an
// unreachable shard: the supervisor's restart loop typically has the shard
// back within a second or two.
const shardUnavailableRetryAfter = 1

func shardUnavailable(err error) error {
	return &apiError{
		code:       http.StatusServiceUnavailable,
		retryAfter: shardUnavailableRetryAfter,
		err:        err,
	}
}

// errorBody is the stable {"error": ...} payload every error response from
// this package carries.
type errorBody struct {
	Error string `json:"error"`
}

// do issues method path with a JSON body (in, nil for none), decoding a
// 2xx response into out (nil to discard). Each attempt runs under its own
// OpTimeout deadline (see retry for the breaker and retry policy). An HTTP
// error status is a shard-made decision, not a transport failure: it is
// returned as an apiError with the shard's code and never retried.
func (rb *RemoteBackend) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	if tid := obs.TraceID(ctx); tid != "" {
		// One client-side span per logical call (retries included), so the
		// trace shows the router-to-shard hop and its total cost.
		defer obs.DefaultTracer().Span(tid, "remote", method+" "+path, rb.shard, "")()
	}
	var body []byte
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return errf(http.StatusInternalServerError, "encoding %s %s request: %v", method, path, err)
		}
		body = raw
	}
	return rb.retry(ctx, idempotent, func() error {
		return rb.attempt(ctx, method, path, body, out)
	})
}

// retry runs one logical call's attempts. Each must pass the circuit
// breaker; transport failures (errors wrapping ErrShardUnavailable) are
// retried with exponential backoff and jitter when the call is idempotent,
// and any other error — the shard's own answer — ends the call at once.
func (rb *RemoteBackend) retry(ctx context.Context, idempotent bool, attempt func() error) error {
	attempts := 1
	if idempotent {
		// Retries < 0 (an explicit "no retries" in tests) clamps to one
		// attempt; the zero value means "default", resolved in withDefaults.
		attempts = max(1, 1+rb.opts.Retries)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rb.retries.Inc()
			// Exponential backoff with jitter: base*2^(i-1) plus up to half
			// of itself again, so a thundering herd of retries spreads.
			d := rb.opts.RetryBase << (i - 1)
			d += time.Duration(rand.Int63n(int64(d)/2 + 1))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return shardUnavailable(fmt.Errorf("shard %s: %v: %w", rb.base, ctx.Err(), ErrShardUnavailable))
			}
		}
		if !rb.breaker.allow() {
			lastErr = fmt.Errorf("shard %s: circuit breaker open: %w", rb.base, ErrShardUnavailable)
			continue
		}
		err := attempt()
		if err == nil {
			return nil
		}
		var ae *apiError
		if errors.As(err, &ae) && !errors.Is(err, ErrShardUnavailable) {
			// The shard answered; its verdict stands.
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			break // the caller is gone; retries would outlive the request
		}
	}
	if _, ok := lastErr.(*apiError); ok {
		return lastErr
	}
	return shardUnavailable(lastErr)
}

// attempt is one unary exchange under its own deadline. The reply is read
// to EOF on every path, so the connection goes back to the pool.
func (rb *RemoteBackend) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	opCtx, cancel := context.WithTimeout(ctx, rb.opts.OpTimeout)
	defer cancel()
	resp, err := rb.send(opCtx, method, path, body)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode >= 400 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		retryAfter := 0
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			retryAfter, _ = strconv.Atoi(ra)
		}
		return &apiError{code: resp.StatusCode, retryAfter: retryAfter, err: errors.New(msg)}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return shardUnavailable(fmt.Errorf("shard %s: decoding %s %s response: %v: %w",
				rb.base, method, path, err, ErrShardUnavailable))
		}
	}
	return nil
}

// send issues one request, forwarding the trace ID, and reports the
// transport outcome to the circuit breaker: any HTTP status is a live
// shard.
func (rb *RemoteBackend) send(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, rb.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "building %s %s: %v", method, path, err)
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if tid := obs.TraceID(ctx); tid != "" {
		req.Header.Set(obs.TraceHeader, tid)
	}
	resp, err := rb.client.Do(req)
	if err != nil {
		rb.breaker.failure()
		return nil, fmt.Errorf("shard %s: %s %s: %v: %w", rb.base, method, path, err, ErrShardUnavailable)
	}
	rb.breaker.success()
	return resp, nil
}

// drainClose reads what is left of a reply body (at most maxDrainBytes)
// and closes it, so its connection goes back to the pool ("Remote shards"
// in doc.go says why).
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
	body.Close()
}

// proxy returns a session proxy for the status the shard just sent. The
// router keeps none of them: each call that returns a session builds a
// fresh one, and the shard stays the authority over its state.
func (rb *RemoteBackend) proxy(st SessionStatus) *Session {
	p := &remoteSession{rb: rb, id: st.ID, last: st, done: make(chan struct{})}
	if st.State.terminal() {
		p.closed = true
		close(p.done)
	}
	return &Session{id: st.ID, remote: p}
}

// createSession builds a session under a router-minted id — the shard-slot
// half of the protocol (POST /shard/sessions).
func (rb *RemoteBackend) createSession(ctx context.Context, id, name string, cfg SessionConfig, pinned *ModelParams) (*Session, error) {
	var st SessionStatus
	req := shardCreateRequest{ID: id, Name: name, Config: cfg, Params: pinned}
	if err := rb.do(ctx, http.MethodPost, "/shard/sessions", req, &st, false); err != nil {
		return nil, err
	}
	return rb.proxy(st), nil
}

// Get fetches a session's status and returns its proxy.
func (rb *RemoteBackend) Get(id string) (*Session, error) {
	var st SessionStatus
	if err := rb.do(context.Background(), http.MethodGet, "/api/sessions/"+id, nil, &st, true); err != nil {
		return nil, err
	}
	return rb.proxy(st), nil
}

// listResponse is the GET /api/sessions payload.
type listResponse struct {
	Sessions []SessionStatus `json:"sessions"`
	Partial  bool            `json:"partial,omitempty"`
	Errors   []ShardError    `json:"errors,omitempty"`
}

// listSessions fetches the shard's sessions in creation order.
func (rb *RemoteBackend) listSessions() ([]*Session, error) {
	var out listResponse
	if err := rb.do(context.Background(), http.MethodGet, "/api/sessions", nil, &out, true); err != nil {
		return nil, err
	}
	sessions := make([]*Session, len(out.Sessions))
	for i, st := range out.Sessions {
		sessions[i] = rb.proxy(st)
	}
	return sessions, nil
}

// Delete removes a session on the shard.
func (rb *RemoteBackend) Delete(id string) error {
	return rb.do(context.Background(), http.MethodDelete, "/api/sessions/"+id, nil, nil, false)
}

// Cancel aborts a running session on the shard.
func (rb *RemoteBackend) Cancel(id string) error {
	return rb.do(context.Background(), http.MethodPost, "/api/sessions/"+id+"/cancel", nil, nil, false)
}

// Run starts the session on the shard's worker pool.
func (rb *RemoteBackend) Run(s *Session) error {
	return rb.do(context.Background(), http.MethodPost, "/api/sessions/"+s.ID()+"/run", nil, nil, false)
}

// shardInfo fetches the shard's health and counters (GET /shard/info).
func (rb *RemoteBackend) shardInfo() (ShardInfo, error) {
	var info ShardInfo
	err := rb.do(context.Background(), http.MethodGet, "/shard/info", nil, &info, true)
	return info, err
}

// traceSpans fetches the shard's recorded spans for one trace ID
// (GET /api/trace/{id} — the shard serves the same trace endpoint the
// router does, so no extra protocol surface is needed).
func (rb *RemoteBackend) traceSpans(id string) ([]obs.Span, error) {
	var out struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := rb.do(context.Background(), http.MethodGet, "/api/trace/"+id, nil, &out, true); err != nil {
		return nil, err
	}
	return out.Spans, nil
}

// Close releases client resources and ends session watches. The shard
// process itself is owned by its supervisor, not the backend.
func (rb *RemoteBackend) Close() {
	rb.endLife()
	rb.client.CloseIdleConnections()
}

// forward serves a session-scoped API request for a session homed on this
// shard by sending it on as-is — method, path, body and X-Trace-Id — and
// copying the shard's status, headers and body back, so the client reads
// exactly what the shard wrote: a 404 for a session deleted behind the
// router, a 409, a 503 included. GETs retry like any read; mutations do
// not. An event stream is flushed as its frames arrive. A shard that cannot
// be reached gets a 503 + Retry-After.
func (rb *RemoteBackend) forward(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	path := r.URL.EscapedPath()
	if tid := obs.TraceID(ctx); tid != "" {
		defer obs.DefaultTracer().Span(tid, "remote", r.Method+" "+path, rb.shard, "")()
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	resp, stop, err := rb.open(ctx, r.Method, path, body)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	defer stop()
	defer resp.Body.Close()
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.Header().Del("Connection")
	w.WriteHeader(resp.StatusCode)
	// Replies are small, so the copy buffer is too: io.Copy's own would
	// cost 32 KB a call, since the edge's writer has no ReadFrom.
	stream, flush := isEventStream(resp), http.NewResponseController(w).Flush
	buf := make([]byte, 1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil || stream && flush() != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// open sends one request and returns the shard's reply once its headers
// are in. GETs retry (see retry). The OpTimeout deadline keeps running
// over the reply body, except on an event stream, where it covers only the
// wait for the headers: the stream lasts as long as ctx. The caller closes
// the body, then calls stop.
func (rb *RemoteBackend) open(ctx context.Context, method, path string, body []byte) (resp *http.Response, stop func(), err error) {
	err = rb.retry(ctx, method == http.MethodGet, func() error {
		reqCtx, cancel := context.WithCancel(ctx)
		timer := time.AfterFunc(rb.opts.OpTimeout, cancel)
		res, err := rb.send(reqCtx, method, path, body)
		if err == nil && isEventStream(res) && !timer.Stop() {
			// The deadline fired as the headers arrived; the stream is dead.
			res.Body.Close()
			err = fmt.Errorf("shard %s: %s %s: no response within %v: %w", rb.base, method, path, rb.opts.OpTimeout, ErrShardUnavailable)
		}
		if err != nil {
			timer.Stop()
			cancel()
			return err
		}
		resp, stop = res, func() { timer.Stop(); cancel() }
		return nil
	})
	return resp, stop, err
}

// isEventStream reports whether a reply is an SSE stream, whose deadline
// ends with its headers.
func isEventStream(resp *http.Response) bool {
	return strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
}

// remoteSession is the state behind a remote session proxy: the last
// status observed from the shard and a locally-managed done channel, closed
// by the first terminal status seen (in a reply, or in a `state` frame of
// the shard's event stream followed by the lazy watcher behind Done).
// Terminal statuses are kept for good — a finished session's state cannot
// change, so the proxy serves it without another round trip.
type remoteSession struct {
	rb *RemoteBackend
	id string

	mu     sync.Mutex
	last   SessionStatus
	closed bool
	// stopWatch ends the watcher behind Done; nil until one is started.
	stopWatch context.CancelFunc
	done      chan struct{}
}

// update folds a fresher status into the proxy; a terminal state closes
// the done channel.
func (p *remoteSession) update(st SessionStatus) {
	p.mu.Lock()
	if !p.last.State.terminal() {
		p.last = st
	}
	terminal := p.last.State.terminal()
	p.mu.Unlock()
	if terminal {
		p.markDone()
	}
}

// markDone closes the done channel once and ends the watcher, if any.
func (p *remoteSession) markDone() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.done)
		if p.stopWatch != nil {
			p.stopWatch()
		}
	}
	p.mu.Unlock()
}

// known returns the status the shard last sent.
func (p *remoteSession) known() SessionStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// status returns the session's current status: the kept copy for terminal
// sessions, a fresh fetch otherwise — falling back to the last-known
// status when the shard is unreachable, so Status (which cannot return an
// error) degrades rather than fabricating state.
func (p *remoteSession) status() SessionStatus {
	last := p.known()
	if last.State.terminal() {
		return last
	}
	var st SessionStatus
	if err := p.rb.do(context.Background(), http.MethodGet, "/api/sessions/"+p.id, nil, &st, true); err != nil {
		return last
	}
	p.update(st)
	return st
}

func (p *remoteSession) submitBag(req BagRequest) (int, float64, error) {
	var out struct {
		Submitted   int     `json:"submitted"`
		MeanRuntime float64 `json:"mean_runtime"`
	}
	err := p.rb.do(context.Background(), http.MethodPost, "/api/sessions/"+p.id+"/bags", req, &out, false)
	if err != nil {
		return 0, 0, err
	}
	p.mu.Lock()
	p.last.JobsSubmitted += out.Submitted
	p.mu.Unlock()
	return out.Submitted, out.MeanRuntime, nil
}

func (p *remoteSession) report() (batch.Report, error) {
	var rep batch.Report
	err := p.rb.do(context.Background(), http.MethodGet, "/api/sessions/"+p.id+"/report", nil, &rep, true)
	return rep, err
}

// doneChan returns the done channel, starting the watcher on first use —
// most sessions are created, run, and polled without anyone ever blocking
// on completion, so the watch stream is lazy.
func (p *remoteSession) doneChan() <-chan struct{} {
	p.mu.Lock()
	var ctx context.Context
	if p.stopWatch == nil && !p.closed {
		ctx, p.stopWatch = context.WithCancel(p.rb.life)
	}
	p.mu.Unlock()
	if ctx != nil {
		go p.watch(ctx)
	}
	return p.done
}

// watchWindow bounds one watch stream: a shard that stops writing without
// closing the connection is caught at the next connect.
const watchWindow = 30 * time.Second

// watchGiveUpAfter bounds consecutive watch failures before the proxy
// declares the wait over: a waiter must not hang forever on a shard that
// never comes back. The session may still be running — callers that then
// fetch its report get the shard's own answer (or a 503).
const watchGiveUpAfter = 20

// watch follows the shard's event stream, one window at a time, until the
// session is terminal (a closing `state` frame, or any other path to
// markDone, which cancels ctx), the session disappears, the backend is
// closed, or the shard stays unreachable past the give-up budget. Every
// way out ends the wait.
func (p *remoteSession) watch(ctx context.Context) {
	defer p.markDone()
	failures := 0
	for {
		windowCtx, cancel := context.WithTimeout(ctx, watchWindow)
		code := p.watchStream(windowCtx)
		quiet := windowCtx.Err() != nil
		cancel()
		switch {
		case ctx.Err() != nil:
			return
		case code == http.StatusNotFound || code == http.StatusGone:
			// The session is gone (deleted, or lost with a shard store):
			// the wait is over even though no terminal state was seen.
			return
		case code == http.StatusOK && quiet:
			// The window closed on a live stream: the run is still going.
			failures = 0
			continue
		}
		// The connect failed, or the stream ended without a terminal frame.
		failures++
		if failures >= watchGiveUpAfter {
			return
		}
		// An open breaker fails fast; pace the loop so it doesn't spin.
		d := p.rb.opts.RetryBase << min(failures, 5)
		select {
		case <-time.After(min(d, 2*time.Second)):
		case <-ctx.Done():
			return
		}
	}
}

// watchStream follows one connection to the shard's event stream, folding
// each `state` frame into the proxy (the closing one marks it done) and
// dropping the rest, and returns the shard's status code (0 when the
// connect failed).
func (p *remoteSession) watchStream(ctx context.Context) int {
	resp, stop, err := p.rb.open(ctx, http.MethodGet, "/api/sessions/"+p.id+"/events", nil)
	if err != nil {
		return 0
	}
	defer stop()
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadBytes('\n')
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(bytes.TrimSpace(line[len("event: "):]))
		case event == "state" && bytes.HasPrefix(line, []byte("data: ")):
			var st SessionStatus
			if json.Unmarshal(line[len("data: "):], &st) == nil {
				p.update(st)
			}
		}
		if err != nil {
			return resp.StatusCode
		}
	}
}
