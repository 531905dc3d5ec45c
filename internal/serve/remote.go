package serve

import (
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
	"time"

	"repro/internal/obs"
)

// This file implements the client half of the shard protocol: a
// RemoteBackend speaks to one shard process (a Manager behind ShardHandler,
// see shardapi.go) and fills one Router slot with it, so a Router can mix
// local and remote shards behind the unchanged HTTP API. The router calls
// a shard for what spans shards — a create, a listing, a stats snapshot, a
// sweep's group of cells in one request — and forwards every request for
// a remote-homed session as-is; no session it hands out calls the shard.
// Every call is a supervised failure domain: a per-op deadline bounds how
// long a hung shard can hold a request, idempotent operations (reads,
// stats, health) retry with exponential backoff and jitter, and a
// per-shard circuit breaker fails fast while the shard is down instead of
// burning a deadline per call. Transport failures surface as 503
// apiErrors wrapping ErrShardUnavailable, with Retry-After set — the same
// backpressure shape degraded mode uses, so clients need one retry
// discipline, not two.

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
	// 5s). On an event stream and on a sweep group, which last as long as
	// their runs, it bounds only the wait for the headers.
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
// Manager does, so a Router treats local and remote shards uniformly for
// creates, listings, stats and sweep groups. It never hands out a session
// that makes network calls: a create returns a receipt, and every later
// request for the session is forwarded to the shard's API as-is.
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
}

// NewRemoteBackend returns a shard slot speaking to the shard server at
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
	return &RemoteBackend{
		base:    strings.TrimSuffix(addr, "/"),
		client:  o.Client,
		opts:    o,
		breaker: newBreaker(o.BreakerThreshold, o.BreakerCooldown),
		shard:   -1,
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

// do issues method path with a JSON body (in, nil for none), decoding a
// 2xx response into out (nil to discard). Each attempt runs under its own
// OpTimeout deadline (see open); a GET retries, a mutation does not (see
// retry for the breaker and retry policy). An HTTP error status is a
// shard-made decision, not a transport failure: it is returned as an
// apiError with the shard's code and never retried.
func (rb *RemoteBackend) do(ctx context.Context, method, path string, in, out any) error {
	if tid := obs.TraceID(ctx); tid != "" {
		// One client-side span per logical call (retries included), so the
		// trace shows the router-to-shard hop and its total cost.
		defer obs.DefaultTracer().Span(tid, "remote", method+" "+path, rb.shard, "")()
	}
	var body []byte
	if in != nil {
		raw, err := appendJSON(make([]byte, 0, 512), in)
		if err != nil {
			return errf(http.StatusInternalServerError, "encoding %s %s request: %v", method, path, err)
		}
		body = raw
	}
	return rb.retry(ctx, method == http.MethodGet, func() error {
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

// attempt is one exchange under its own deadline (see open). The reply is
// read to EOF on every path, so the connection goes back to the pool.
func (rb *RemoteBackend) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	resp, stop, err := rb.open(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer stop()
	defer drainClose(resp.Body)
	if resp.StatusCode >= 400 {
		return replyError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return shardUnavailable(fmt.Errorf("shard %s: decoding %s %s response: %v: %w",
				rb.base, method, path, err, ErrShardUnavailable))
		}
	}
	return nil
}

// replyError decodes a shard's error reply as writeErr wrote it: status,
// Retry-After (whole seconds, else none) and the errorBody (else the
// status line).
func replyError(resp *http.Response) error {
	var eb errorBody
	if json.NewDecoder(resp.Body).Decode(&eb) != nil {
		eb = errorBody{}
	}
	if eb.Error == "" {
		eb.Error = resp.Status
	}
	retryAfter, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retryAfter < 0 {
		retryAfter = 0
	}
	return &apiError{code: resp.StatusCode, retryAfter: retryAfter, idSeq: eb.IDSeq, err: errors.New(eb.Error)}
}

// deadlineHeader carries an attempt's deadline, in Unix nanoseconds, to
// the shard, which refuses to start a request that arrives past it (see
// withShardTrace): the router has answered that request 503 by then, and
// a client that retries must not have it applied twice. The router and
// its shards run on one host and read one clock.
const deadlineHeader = "X-Shard-Deadline"

// send issues one request, forwarding the trace ID and the attempt's
// deadline, and reports the transport outcome to the circuit breaker: any
// HTTP status is a live shard.
func (rb *RemoteBackend) send(ctx context.Context, method, path string, body []byte, deadline time.Time) (*http.Response, error) {
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
	req.Header.Set(deadlineHeader, strconv.FormatInt(deadline.UnixNano(), 10))
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

// createSession builds a session under a router-minted id — the shard-slot
// half of the protocol (POST /shard/sessions) — and returns its receipt.
func (rb *RemoteBackend) createSession(ctx context.Context, id, name string, cfg SessionConfig, pinned *ModelParams) (*Session, error) {
	var st SessionStatus
	req := shardCreateRequest{ID: id, Name: name, Config: cfg, Params: pinned}
	if err := rb.do(ctx, http.MethodPost, "/shard/sessions", req, &st); err != nil {
		return nil, err
	}
	return receipt(st), nil
}

// sweep runs one sweep group on the shard as a single POST /shard/sweep
// and returns its cells' outcomes in request order. The shard sends its
// headers once the cells are created and started, so OpTimeout bounds
// that wait only; the runs themselves last as long as ctx. A mutation, it
// is never retried.
func (rb *RemoteBackend) sweep(ctx context.Context, req shardSweepRequest) ([]cellOutcome, error) {
	var out struct {
		Cells []cellOutcome `json:"cells"`
	}
	if err := rb.do(ctx, http.MethodPost, shardSweepPath, req, &out); err != nil {
		return nil, err
	}
	if len(out.Cells) != len(req.Cells) {
		return nil, shardUnavailable(fmt.Errorf("shard %s: %s answered %d cells for %d: %w",
			rb.base, shardSweepPath, len(out.Cells), len(req.Cells), ErrShardUnavailable))
	}
	return out.Cells, nil
}

// listResponse is the GET /api/sessions payload.
type listResponse struct {
	Sessions []SessionStatus `json:"sessions"`
	Partial  bool            `json:"partial,omitempty"`
	Errors   []ShardError    `json:"errors,omitempty"`
}

// Get, Delete, Cancel and Run refuse: the router keeps nothing for a
// remote-homed session, and the API forwards its requests to the shard.
func (rb *RemoteBackend) Get(id string) (*Session, error) { return nil, errRemoteHomed(id) }
func (rb *RemoteBackend) Delete(id string) error          { return errRemoteHomed(id) }
func (rb *RemoteBackend) Cancel(id string) error          { return errRemoteHomed(id) }
func (rb *RemoteBackend) Run(s *Session) error            { return errRemoteHomed(s.ID()) }

// listSessions fetches the shard's session statuses in creation order.
func (rb *RemoteBackend) listSessions() ([]SessionStatus, error) {
	var out listResponse
	if err := rb.do(context.Background(), http.MethodGet, "/api/sessions", nil, &out); err != nil {
		return nil, err
	}
	return out.Sessions, nil
}

// shardInfo fetches the shard's health and counters (GET /shard/info).
func (rb *RemoteBackend) shardInfo() (ShardInfo, error) {
	var info ShardInfo
	err := rb.do(context.Background(), http.MethodGet, "/shard/info", nil, &info)
	return info, err
}

// traceSpans fetches the shard's recorded spans for one trace ID
// (GET /api/trace/{id} — the shard serves the same trace endpoint the
// router does, so no extra protocol surface is needed).
func (rb *RemoteBackend) traceSpans(id string) ([]obs.Span, error) {
	var out struct {
		Spans []obs.Span `json:"spans"`
	}
	if err := rb.do(context.Background(), http.MethodGet, "/api/trace/"+id, nil, &out); err != nil {
		return nil, err
	}
	return out.Spans, nil
}

// Close releases the backend's idle connections. The shard process itself
// is owned by its supervisor, not the backend.
func (rb *RemoteBackend) Close() { rb.client.CloseIdleConnections() }

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
	var resp *http.Response
	var stop func()
	err = rb.retry(ctx, r.Method == http.MethodGet, func() (err error) {
		resp, stop, err = rb.open(ctx, r.Method, path, body)
		return err
	})
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

// open makes one attempt at a request and returns the shard's reply once
// its headers are in; the caller closes the body, then calls stop. The
// OpTimeout deadline keeps running over the reply body, except where the
// reply lasts as long as the work behind it — an event stream, or a sweep
// group's answer, which the shard sends once the group's runs are over —
// where it covers only the wait for the headers and ctx bounds the rest.
func (rb *RemoteBackend) open(ctx context.Context, method, path string, body []byte) (*http.Response, func(), error) {
	reqCtx, cancel := context.WithCancel(ctx)
	deadline := time.Now().Add(rb.opts.OpTimeout)
	timer := time.AfterFunc(rb.opts.OpTimeout, cancel)
	res, err := rb.send(reqCtx, method, path, body, deadline)
	if (err != nil || isEventStream(res) || path == shardSweepPath) && !timer.Stop() {
		// The deadline fired before (or as) the headers arrived.
		if err == nil {
			res.Body.Close()
		}
		err = fmt.Errorf("shard %s: %s %s: no response within %v: %w", rb.base, method, path, rb.opts.OpTimeout, ErrShardUnavailable)
	}
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return res, func() { timer.Stop(); cancel() }, nil
}

// isEventStream reports whether a reply is an SSE stream, whose deadline
// ends with its headers.
func isEventStream(resp *http.Response) bool {
	return strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
}
