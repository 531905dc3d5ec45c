package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// Observability tests: the metrics exposition must cover every serving
// layer, a trace ID handed to the HTTP edge must come back as an
// edge-to-WAL span chain, and /api/stats must keep its pre-telemetry
// shape byte-for-byte.

// scrape fetches the Prometheus exposition from the default registry.
func scrape(t *testing.T) (string, http.Header) {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Default().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape: %d %s", rec.Code, rec.Body)
	}
	return rec.Body.String(), rec.Result().Header
}

func TestMetricsExposition(t *testing.T) {
	m := NewManager(2)
	s, err := m.CreateCtx(context.Background(), "obs", testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 8, Jitter: 0.01, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	s.Wait()

	body, hdr := scrape(t)
	if ct := hdr.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	// One series per layer proves each is wired into the registry; exact
	// values belong to the obs package's own tests.
	for _, series := range []string{
		`batchsvc_sessions_created_total{shard="0"}`,
		`batchsvc_sessions_terminal_total{shard="0",state="done"}`,
		`batchsvc_scenario_sessions_total{policy="reuse",shard="0"}`,
		`batchsvc_session_queue_depth{shard="0"}`,
		`batchsvc_sessions_live{shard="0"}`,
		`batchsvc_store_degraded{shard="0"}`,
		`batchsvc_schedule_cache_hits{kind="scheduler"}`,
		`batchsvc_dp_solve_seconds_count`,
		`batchsvc_trace_spans_dropped`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	for _, help := range []string{"# HELP batchsvc_sessions_created_total", "# TYPE batchsvc_dp_solve_seconds histogram"} {
		if !strings.Contains(body, help) {
			t.Errorf("exposition missing metadata line %q", help)
		}
	}
}

// TestHTTPRouteLabels pins the request metrics' route label: the pattern
// the mux matched (even when the handler itself answers 404), and
// "unmatched" for the mux's own 404s and 405s, so raw request paths never
// become label values.
func TestHTTPRouteLabels(t *testing.T) {
	m := NewManager(1)
	defer m.Close()
	h := NewAPI(m).Handler()
	requests := func(route, status string) *obs.Counter {
		return obs.Default().Counter("batchsvc_http_requests_total", "", "route", route, "status", status)
	}
	for _, c := range []struct {
		method, path, route, status string
	}{
		{"GET", "/api/sessions", "GET /api/sessions", "200"},
		{"GET", "/api/sessions/s-nope", "GET /api/sessions/{id}", "404"},
		{"GET", "/api/no-such-route", "unmatched", "404"},
		{"DELETE", "/api/stats", "unmatched", "405"},
	} {
		before := requests(c.route, c.status).Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if got := strconv.Itoa(rec.Code); got != c.status {
			t.Fatalf("%s %s: status %s, want %s", c.method, c.path, got, c.status)
		}
		if n := requests(c.route, c.status).Value() - before; n != 1 {
			t.Errorf("%s %s counted %d times under route %q status %s, want once", c.method, c.path, n, c.route, c.status)
		}
	}
}

func TestShardHandlerServesMetrics(t *testing.T) {
	srv := httptest.NewServer(ShardHandler(NewShardManager(1)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("shard /metrics content type = %q", ct)
	}
}

// TestTracePropagationLocal walks one request through the full local path:
// a caller-supplied X-Trace-Id must be echoed back, show up on the session
// status and report, and come back from GET /api/trace/{id} as spans
// covering the edge, the shard execution, and the WAL persists.
func TestTracePropagationLocal(t *testing.T) {
	h := NewAPI(NewManager(2)).Handler()
	const tid = "feedfacecafebeef"

	req := httptest.NewRequest(http.MethodPost, "/api/sessions",
		strings.NewReader(`{"name":"traced","config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":4,"seed":7,"model":{"a":0.45,"tau1":1.0,"tau2":0.8,"b":24,"l":24}}}`))
	req.Header.Set(obs.TraceHeader, tid)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(obs.TraceHeader); got != tid {
		t.Fatalf("trace header echo = %q, want %q", got, tid)
	}
	var created struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.TraceID != tid {
		t.Fatalf("status trace_id = %q, want %q", created.TraceID, tid)
	}

	rec, _ = doJSON(t, h, "POST", "/api/sessions/"+created.ID+"/bags",
		map[string]any{"app": "shapes", "jobs": 6, "jitter": 0.01, "seed": 7})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("bags: %d %s", rec.Code, rec.Body)
	}
	rec, _ = doJSON(t, h, "POST", "/api/sessions/"+created.ID+"/run", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	waitDone(t, h, created.ID)

	rec, report := doJSON(t, h, "GET", "/api/sessions/"+created.ID+"/report", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("report: %d %s", rec.Code, rec.Body)
	}
	if report["trace_id"] != tid {
		t.Fatalf("report trace_id = %v, want %q", report["trace_id"], tid)
	}

	rec, _ = doJSON(t, h, "GET", "/api/trace/"+tid, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", rec.Code, rec.Body)
	}
	var out struct {
		TraceID string     `json:"trace_id"`
		Spans   []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	components := map[string]bool{}
	names := map[string]bool{}
	for _, sp := range out.Spans {
		if sp.TraceID != tid {
			t.Fatalf("span with foreign trace id %q in %s trace", sp.TraceID, tid)
		}
		components[sp.Component] = true
		names[sp.Name] = true
	}
	for _, want := range []string{"api", "shard"} {
		if !components[want] {
			t.Errorf("trace missing %q component; have %v", want, sorted(components))
		}
	}
	if !names["session.create"] {
		t.Errorf("trace missing session.create span; have %v", sorted(names))
	}
	if !sort.SliceIsSorted(out.Spans, func(i, j int) bool {
		return out.Spans[i].Start.Before(out.Spans[j].Start)
	}) {
		t.Error("trace spans not sorted by start time")
	}
}

// TestTraceMintedAtEdge: a request without X-Trace-Id still gets one, and
// the minted id is returned so the caller can follow up.
func TestTraceMintedAtEdge(t *testing.T) {
	h := NewAPI(NewManager(1)).Handler()
	req := httptest.NewRequest(http.MethodGet, "/api/sessions", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d %s", rec.Code, rec.Body)
	}
	minted := rec.Header().Get(obs.TraceHeader)
	if len(minted) != 16 {
		t.Fatalf("minted trace id = %q, want 16 hex chars", minted)
	}
}

// TestStatsPayloadShape pins the /api/stats key set for both backends:
// the telemetry work must not rename, drop, or add top-level keys.
func TestStatsPayloadShape(t *testing.T) {
	wantMgr := []string{"dp_solves", "health", "models", "schedule_cache", "sessions"}
	if got := sortedKeys(NewManager(1).statsPayload()); !equalStrings(got, wantMgr) {
		t.Errorf("manager stats keys = %v, want %v", got, wantMgr)
	}
	wantRouter := []string{"dp_solves", "health", "models", "schedule_cache", "sessions", "shards"}
	if got := sortedKeys(NewRouter(2, 1).statsPayload()); !equalStrings(got, wantRouter) {
		t.Errorf("router stats keys = %v, want %v", got, wantRouter)
	}
}

// TestMetricsConcurrentScrape runs scrapes against live traffic; under
// -race this is the data-race gate for every GaugeFunc's read path.
func TestMetricsConcurrentScrape(t *testing.T) {
	m := NewManager(2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					scrape(t)
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		s, err := m.CreateCtx(obs.WithTrace(context.Background(), obs.NewTraceID()), "scrape", testConfig(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Jitter: 0.01, Seed: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	m.Wait()
	close(stop)
	wg.Wait()
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
