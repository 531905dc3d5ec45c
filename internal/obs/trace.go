package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"time"
)

// Request tracing: a trace ID minted at the HTTP edge rides the request
// context through the router, crosses the shard protocol in the
// X-Trace-Id header, and every interesting hop (edge handling, router
// placement, remote call, shard-side handling, WAL persist, session
// lifecycle transition) drops a Span into a bounded in-process ring
// buffer. GET /api/trace/{id} gathers the spans back — the router merges
// its own buffer with each shard's — so one request can be followed
// across process boundaries without any external collector.

// TraceHeader carries the trace ID across the shard protocol (and is
// echoed on every API response).
const TraceHeader = "X-Trace-Id"

// Span is one recorded hop of a traced request. Spans are cheap,
// append-only records, not a full parent/child tree: ordering by Start
// within one trace reconstructs the request's path well enough for a
// serving tier that is three hops deep.
type Span struct {
	TraceID    string    `json:"trace_id"`
	Component  string    `json:"component"`         // "api", "router", "remote", "shard", "wal", "session"
	Name       string    `json:"name"`              // e.g. "session.create", "wal.persist"
	Shard      int       `json:"shard"`             // owning shard index (-1 when not shard-scoped)
	Session    string    `json:"session,omitempty"` // session id, when one is in scope
	Detail     string    `json:"detail,omitempty"`  // free-form: route, record kind, state...
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
}

// Tracer is a bounded ring buffer of spans. Emission overwrites the
// oldest span once full; retrieval scans the buffer. The ring's storage
// is paid for as spans arrive: a fresh tracer holds none, the first Emit
// allocates a small slice, and each time it fills it is copied into one
// twice as large, clamped to the limit, so a full ring holds exactly limit
// spans and a process that never traces never allocates one. The mutex is
// fine here — spans are emitted per request hop, not per simulation step.
type Tracer struct {
	mu    sync.Mutex
	limit int
	buf   []Span
	next  int // the oldest span's index once len(buf) == limit
	drops uint64
}

// DefaultTraceBuffer is the default ring capacity (overridable with
// batchsvc's -trace-buffer flag).
const DefaultTraceBuffer = 4096

// minTraceGrowth is the ring's first allocation, in spans.
const minTraceGrowth = 64

// NewTracer builds a tracer holding up to capacity spans (<=0 selects
// DefaultTraceBuffer). It allocates no span storage until the first Emit.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceBuffer
	}
	return &Tracer{limit: capacity}
}

var (
	defaultTracer     *Tracer
	defaultTracerOnce sync.Once
)

// DefaultTracer returns the process-wide tracer every instrumented layer
// emits into.
func DefaultTracer() *Tracer {
	defaultTracerOnce.Do(func() { defaultTracer = NewTracer(0) })
	return defaultTracer
}

// SetCapacity sets the ring's limit and drops the buffered spans and their
// storage; the next Emit starts a new ring. The drop count is kept.
func (t *Tracer) SetCapacity(capacity int) {
	if t == nil || capacity <= 0 {
		return
	}
	t.mu.Lock()
	t.limit = capacity
	t.buf = nil
	t.next = 0
	t.mu.Unlock()
}

// Emit records one span. Spans without a trace ID are dropped — untraced
// internal work (benchmarks driving a Manager directly) pays only this
// branch.
func (t *Tracer) Emit(s Span) {
	if t == nil || s.TraceID == "" {
		return
	}
	t.mu.Lock()
	if n := len(t.buf); n < t.limit {
		if n == cap(t.buf) {
			// Grow by copying into an exact-size slice, not by append, whose
			// rounding up to a size class would overshoot the limit.
			grown := make([]Span, n, min(max(2*n, minTraceGrowth), t.limit))
			copy(grown, t.buf)
			t.buf = grown
		}
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % n
		t.drops++
	}
	t.mu.Unlock()
}

// Span starts a timed span and returns the func that ends and emits it.
// A no-op func is returned when traceID is empty.
func (t *Tracer) Span(traceID, component, name string, shard int, session string) func() {
	if t == nil || traceID == "" {
		return func() {}
	}
	start := time.Now()
	return func() {
		t.Emit(Span{
			TraceID:    traceID,
			Component:  component,
			Name:       name,
			Shard:      shard,
			Session:    session,
			Start:      start,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		})
	}
}

// Spans returns every buffered span of one trace, oldest first.
func (t *Tracer) Spans(traceID string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	n := len(t.buf)
	for i := 0; i < n; i++ {
		// Oldest-first walk: the ring's oldest entry sits at next, which
		// stays 0 until the ring is full.
		j := (t.next + i) % n
		if t.buf[j].TraceID == traceID {
			out = append(out, t.buf[j])
		}
	}
	return out
}

// Dropped reports how many spans have been overwritten since startup —
// exposed as a gauge so an undersized -trace-buffer is visible.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

type traceKey struct{}

// NewTraceID mints a 16-hex-char random trace ID. The edge mints one for
// every request that arrives without one, so it allocates only the string.
func NewTraceID() string {
	var buf [24]byte // the random bytes in the tail, their hex form in front
	raw := buf[16:]
	if _, err := rand.Read(raw); err != nil {
		// crypto/rand failing means the platform is broken; a fixed ID keeps
		// serving rather than panicking in a telemetry path.
		return "0000000000000000"
	}
	hex.Encode(buf[:16], raw)
	return string(buf[:16])
}

// WithTrace returns ctx carrying the trace ID.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID extracts the context's trace ID ("" when untraced).
func TraceID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// EnsureTrace returns ctx guaranteed to carry a trace ID, minting one if
// absent, plus the ID.
func EnsureTrace(ctx context.Context) (context.Context, string) {
	if id := TraceID(ctx); id != "" {
		return ctx, id
	}
	id := NewTraceID()
	return WithTrace(ctx, id), id
}

// TraceFromRequest pulls the inbound X-Trace-Id header (if any) into the
// request context, minting a fresh ID otherwise, and returns the updated
// context and the ID.
func TraceFromRequest(r *http.Request) (context.Context, string) {
	if id := r.Header.Get(TraceHeader); id != "" {
		return WithTrace(r.Context(), id), id
	}
	return EnsureTrace(r.Context())
}
