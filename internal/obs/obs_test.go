package obs

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exposition render byte-for-byte: family
// ordering, HELP/TYPE headers, label sorting and escaping, cumulative
// histogram buckets with merged le labels, and float formatting. Any
// scraper-visible change to the format must update this test knowingly.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_requests_total", "Requests.", "route", "/api/sessions", "code", "200").Add(3)
	r.Counter("zz_requests_total", "Requests.", "route", "/api/stats", "code", "200").Inc()
	r.Gauge("aa_depth", "Queue depth.", "shard", "0").Set(2)
	r.GaugeFunc("mm_lag", "Replication lag.", func() float64 { return 1.5 }, "shard", "1")
	h := r.Histogram("hh_seconds", "Latency.", []float64{0.1, 1}, "op", `we"ird\`)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	r.WriteTo(w)
	w.Flush()

	want := `# HELP aa_depth Queue depth.
# TYPE aa_depth gauge
aa_depth{shard="0"} 2
# HELP hh_seconds Latency.
# TYPE hh_seconds histogram
hh_seconds_bucket{op="we\"ird\\",le="0.1"} 1
hh_seconds_bucket{op="we\"ird\\",le="1"} 2
hh_seconds_bucket{op="we\"ird\\",le="+Inf"} 3
hh_seconds_sum{op="we\"ird\\"} 5.55
hh_seconds_count{op="we\"ird\\"} 3
# HELP mm_lag Replication lag.
# TYPE mm_lag gauge
mm_lag{shard="1"} 1.5
# HELP zz_requests_total Requests.
# TYPE zz_requests_total counter
zz_requests_total{code="200",route="/api/sessions"} 3
zz_requests_total{code="200",route="/api/stats"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGetOrCreateReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "c", "shard", "0")
	b := r.Counter("c_total", "c", "shard", "0")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}
	// Label order must not matter for series identity.
	g1 := r.Gauge("g", "g", "a", "1", "b", "2")
	g2 := r.Gauge("g", "g", "b", "2", "a", "1")
	if g1 != g2 {
		t.Fatal("label order changed series identity")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Emit(Span{TraceID: "x"})
	tr.Span("x", "c", "n", 0, "")()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Spans("x") != nil {
		t.Fatal("nil metrics leaked state")
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "ok").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q missing exposition version", ct)
	}
	var sb strings.Builder
	if _, err := copyAll(&sb, resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ok_total 1") {
		t.Fatalf("body missing series: %q", sb.String())
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp2.StatusCode)
	}
}

func copyAll(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, nil
		}
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(Span{TraceID: "t", Shard: i})
	}
	spans := tr.Spans("t")
	if len(spans) != 4 {
		t.Fatalf("ring of 4 holds %d spans", len(spans))
	}
	for i, s := range spans {
		if s.Shard != i+2 {
			t.Fatalf("span %d shard = %d, want %d (oldest-first after wrap)", i, s.Shard, i+2)
		}
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
}

func TestTracerIgnoresUntraced(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit(Span{})
	tr.Span("", "c", "n", 0, "")()
	if got := tr.Spans(""); got != nil {
		t.Fatalf("untraced spans recorded: %v", got)
	}
}

// emitShards emits spans of trace "t" whose Shard fields count up from
// first.
func emitShards(tr *Tracer, first, n int) {
	for i := first; i < first+n; i++ {
		tr.Emit(Span{TraceID: "t", Shard: i})
	}
}

// checkRing checks the ring's storage is exactly wantCap spans with
// wantLen of them held, and that Spans walks them oldest-first from the
// span with Shard == first.
func checkRing(t *testing.T, tr *Tracer, wantLen, wantCap, first int) {
	t.Helper()
	if len(tr.buf) != wantLen || cap(tr.buf) != wantCap {
		t.Fatalf("ring len %d cap %d, want len %d cap %d", len(tr.buf), cap(tr.buf), wantLen, wantCap)
	}
	spans := tr.Spans("t")
	if len(spans) != wantLen {
		t.Fatalf("Spans returned %d, want %d", len(spans), wantLen)
	}
	for i, s := range spans {
		if s.Shard != first+i {
			t.Fatalf("span %d has shard %d, want %d (oldest first)", i, s.Shard, first+i)
		}
	}
}

// TestTracerRingAllocatedOnFirstEmit pins that a tracer pays for no span
// storage until a span arrives: not when built, and not when resized.
func TestTracerRingAllocatedOnFirstEmit(t *testing.T) {
	tr := NewTracer(0)
	if tr.buf != nil {
		t.Fatalf("fresh tracer holds storage for %d spans", cap(tr.buf))
	}
	tr.SetCapacity(1000)
	if tr.buf != nil {
		t.Fatalf("resized tracer holds storage for %d spans", cap(tr.buf))
	}
	tr.Emit(Span{})
	if tr.buf != nil {
		t.Fatal("an untraced span allocated the ring")
	}
	emitShards(tr, 0, 1)
	checkRing(t, tr, 1, minTraceGrowth, 0)
}

// TestTracerRingGrowsToExactLimit fills a ring whose limit is no power of
// two past its limit: it grows oldest-first, then holds exactly limit
// spans with no spare capacity, wraps oldest-first, and counts every
// overwritten span as dropped.
func TestTracerRingGrowsToExactLimit(t *testing.T) {
	const limit, k = 300, 7
	tr := NewTracer(limit)
	emitShards(tr, 0, minTraceGrowth+1)
	checkRing(t, tr, minTraceGrowth+1, 2*minTraceGrowth, 0)
	emitShards(tr, minTraceGrowth+1, limit-minTraceGrowth-1)
	checkRing(t, tr, limit, limit, 0)
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d before the ring was full", tr.Dropped())
	}
	emitShards(tr, limit, k)
	checkRing(t, tr, limit, limit, k)
	if tr.Dropped() != k {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), k)
	}
}

// TestTracerSetCapacityResetsRing resizes a tracer after traffic: the
// buffered spans and their storage go, and the next spans fill a new ring
// of the new limit.
func TestTracerSetCapacityResetsRing(t *testing.T) {
	tr := NewTracer(8)
	emitShards(tr, 0, 11)
	tr.SetCapacity(5)
	if tr.buf != nil || tr.Spans("t") != nil {
		t.Fatalf("resize kept %d spans in storage for %d", len(tr.buf), cap(tr.buf))
	}
	emitShards(tr, 100, 6)
	checkRing(t, tr, 5, 5, 101)
	if tr.Dropped() != 3+1 {
		t.Fatalf("dropped = %d, want 4 (3 before the resize, 1 after)", tr.Dropped())
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("fresh context has a trace")
	}
	ctx2, id := EnsureTrace(ctx)
	if id == "" || TraceID(ctx2) != id {
		t.Fatalf("EnsureTrace: id=%q ctx=%q", id, TraceID(ctx2))
	}
	ctx3, id3 := EnsureTrace(ctx2)
	if id3 != id || ctx3 != ctx2 {
		t.Fatal("EnsureTrace re-minted on a traced context")
	}

	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(TraceHeader, "abc123")
	_, got := TraceFromRequest(req)
	if got != "abc123" {
		t.Fatalf("TraceFromRequest ignored header: %q", got)
	}
	req2 := httptest.NewRequest(http.MethodGet, "/", nil)
	_, minted := TraceFromRequest(req2)
	if len(minted) != 16 {
		t.Fatalf("minted trace id %q, want 16 hex chars", minted)
	}
}

// TestConcurrentScrape hammers every metric type and the tracer from
// writers while scraping — the in-package half of the scrape-while-serving
// race coverage (run under -race -count=2 in CI's chaos job).
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(64)
	// Register the families up front so every scrape below must see them;
	// the goroutines then only update series.
	r.Counter("cc_total", "c", "w", "a")
	r.Histogram("hh_seconds", "h", nil)
	r.Gauge("gg", "g")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("cc_total", "c", "w", string(rune('a'+w)))
			h := r.Histogram("hh_seconds", "h", nil)
			g := r.Gauge("gg", "g")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%7) / 100)
				g.Set(float64(i))
				tr.Emit(Span{TraceID: "t", Shard: w})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		bw := bufio.NewWriter(&sb)
		r.WriteTo(bw)
		bw.Flush()
		if !strings.Contains(sb.String(), "# TYPE cc_total counter") {
			t.Fatal("scrape lost a family")
		}
		tr.Spans("t")
	}
	close(stop)
	wg.Wait()
}

// BenchmarkObsOverhead isolates the per-event cost the instrumented hot
// paths pay: one counter increment plus one histogram observation (the
// combination the HTTP and WAL paths add per request/append), and the
// span-helper no-op for untraced work.
func BenchmarkObsOverhead(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "b", "shard", "0")
	h := r.Histogram("bench_seconds", "b", nil, "shard", "0")
	tr := NewTracer(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(0.0012)
		tr.Span("", "bench", "noop", 0, "")()
	}
}
