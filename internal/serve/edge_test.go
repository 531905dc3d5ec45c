package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
)

// Edge tests: the API's request path pays for no bookkeeping nobody reads,
// and its replies and request series stay byte for byte what the
// map-encoded replies and per-request registry lookups produced.

// discardWriter is a reusable ResponseWriter that keeps only its header
// map, so an allocation count sees the handler's allocations alone.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestEdgeRequestAllocs pins the allocations of one request through the
// API handler: a session status read, a handler 404 and a mux 404. The
// route's series are resolved on its first request, the edge wraps the
// writer once, a minted trace id is one string, and the mux writes its 404
// as JSON once, so the counts are what the handler and net/http's routing
// cost.
func TestEdgeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := NewManager(1)
	defer m.Close()
	s, err := m.Create("allocs", testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	h := NewAPI(m).Handler()
	for _, c := range []struct {
		method, path string
		max          float64
	}{
		{http.MethodGet, "/api/sessions/" + s.ID(), 11},
		{http.MethodGet, "/api/sessions/s-nope", 16},
		{http.MethodGet, "/api/no-such-route", 19},
	} {
		req := httptest.NewRequest(c.method, c.path, nil)
		w := &discardWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		})
		if allocs > c.max {
			t.Errorf("%s %s: %v allocations per request, want at most %v", c.method, c.path, allocs, c.max)
		}
	}
}

// TestSmallReplyBytes pins the exact bodies of the bags, run and delete
// replies and of the error payloads, handler-made and mux-made.
func TestSmallReplyBytes(t *testing.T) {
	m := NewManager(1)
	defer m.Close()
	h := NewAPI(m).Handler()
	rec := call(t, h, http.MethodPost, "/api/sessions", createRequest{Config: testConfig(1)})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	p := "/api/sessions/s-001"
	for _, c := range []struct {
		method, path string
		body         any
		code         int
		want         string
	}{
		{http.MethodPost, p + "/bags", BagRequest{App: "shapes", Jobs: 5, Seed: 2}, http.StatusAccepted,
			`{"mean_runtime":0.15,"submitted":5}`},
		{http.MethodPost, p + "/run", nil, http.StatusAccepted, `{"id":"s-001","state":"running"}`},
		{http.MethodDelete, p, nil, http.StatusOK, `{"deleted":"s-001"}`},
		{http.MethodPost, "/api/sessions/s-<&>/bags", BagRequest{App: "shapes", Jobs: 5}, http.StatusNotFound,
			`{"error":"no session \"s-\u003c\u0026\u003e\""}`},
		{http.MethodGet, "/api/no-such-route", nil, http.StatusNotFound, `{"error":"Not Found"}`},
		{http.MethodDelete, "/api/stats", nil, http.StatusMethodNotAllowed, `{"error":"Method Not Allowed"}`},
	} {
		rec := call(t, h, c.method, c.path, c.body)
		if rec.Code != c.code || rec.Body.String() != c.want+"\n" {
			t.Errorf("%s %s: %d %q, want %d %q", c.method, c.path, rec.Code, rec.Body.String(), c.code, c.want+"\n")
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", c.method, c.path, ct)
		}
		if c.path == p+"/run" {
			m.Wait()
		}
	}
}

// TestMuxErrorsAreJSON sends requests no route serves to the API and to
// the shard protocol: each answers the status and Allow header net/http's
// own mux answers, with the structured payload as its body.
func TestMuxErrorsAreJSON(t *testing.T) {
	m := NewShardManager(1)
	defer m.Close()
	api, shard := NewAPI(m).Handler(), ShardHandler(m)
	for _, c := range []struct {
		h            http.Handler
		method, path string
		code         int
		allow        string
	}{
		{api, http.MethodDelete, "/api/stats", http.StatusMethodNotAllowed, "GET, HEAD"},
		{api, http.MethodPut, "/api/sessions/s-001", http.StatusMethodNotAllowed, "DELETE, GET, HEAD"},
		{api, http.MethodGet, "/api/sweep", http.StatusMethodNotAllowed, "POST"},
		{api, http.MethodHead, "/api/sessions/s-001/run", http.StatusMethodNotAllowed, "POST"},
		{api, http.MethodGet, "/api/sessions/s-001/", http.StatusNotFound, ""},
		{api, http.MethodGet, "/nope", http.StatusNotFound, ""},
		{shard, http.MethodGet, "/shard/sessions", http.StatusMethodNotAllowed, "POST"},
		{shard, http.MethodPost, "/metrics", http.StatusMethodNotAllowed, "GET, HEAD"},
		{shard, http.MethodPut, "/api/stats", http.StatusMethodNotAllowed, "GET, HEAD"},
		{shard, http.MethodGet, "/shard/nope", http.StatusNotFound, ""},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		body := `{"error":"` + http.StatusText(c.code) + "\"}\n"
		if rec.Code != c.code || rec.Header().Get("Allow") != c.allow || rec.Body.String() != body ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d Allow %q Content-Type %q %q, want %d Allow %q application/json %q", c.method, c.path,
				rec.Code, rec.Header().Get("Allow"), rec.Header().Get("Content-Type"), rec.Body.String(), c.code, c.allow, body)
		}
	}
}

// httpSeries reads the batchsvc_http_* series of the default registry:
// each requests_total series and each histogram's _count, keyed by the
// rendered line up to its value.
func httpSeries(t *testing.T) map[string]uint64 {
	t.Helper()
	body, _ := scrape(t)
	out := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "batchsvc_http_requests_total{") && !strings.HasPrefix(line, "batchsvc_http_request_seconds_count{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestHTTPSeriesExposition drives a request mix with a 2xx, a handler 404,
// a mux 404 and a mux 405 through a fresh handler and checks the request
// series on /metrics: each request counts once under its route and status,
// with the label blocks and values the exposition has always rendered, and
// no series exists that no request touched.
func TestHTTPSeriesExposition(t *testing.T) {
	m := NewManager(1)
	defer m.Close()
	h := NewAPI(m).Handler()
	before := httpSeries(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/api/sessions"},
		{http.MethodGet, "/api/sessions"},
		{http.MethodGet, "/api/sessions/s-nope"},
		{http.MethodGet, "/api/no-such-route"},
		{http.MethodDelete, "/api/stats"},
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(c.method, c.path, nil))
	}
	after := httpSeries(t)
	want := map[string]uint64{
		`batchsvc_http_requests_total{route="GET /api/sessions",status="200"}`:      2,
		`batchsvc_http_requests_total{route="GET /api/sessions/{id}",status="404"}`: 1,
		`batchsvc_http_requests_total{route="unmatched",status="404"}`:              1,
		`batchsvc_http_requests_total{route="unmatched",status="405"}`:              1,
		`batchsvc_http_request_seconds_count{route="GET /api/sessions"}`:            2,
		`batchsvc_http_request_seconds_count{route="GET /api/sessions/{id}"}`:       1,
		`batchsvc_http_request_seconds_count{route="unmatched"}`:                    2,
	}
	for series, n := range want {
		if got := after[series] - before[series]; got != n {
			t.Errorf("%s grew by %d, want %d", series, got, n)
		}
	}
	for series, v := range after {
		if _, ok := want[series]; !ok && v != before[series] {
			t.Errorf("%s changed (%d -> %d) though no request of the mix is counted there", series, before[series], v)
		}
		if v == 0 {
			t.Errorf("%s is listed with no request counted", series)
		}
	}
}

// TestListingsNeverNull reads /jobs and /vms over HTTP right after a run
// is started, mid-run once the wait for a detailed snapshot has timed out
// (the run's first snapshot carries no listing, as nobody had asked for
// one), and after the run is done: each answer is a JSON list, never null.
func TestListingsNeverNull(t *testing.T) {
	const jobs = 20
	// list reads a listing; it reports with Errorf, as it runs on
	// goroutines of its own too.
	list := func(t *testing.T, h http.Handler, path string) []json.RawMessage {
		t.Helper()
		rec := call(t, h, http.MethodGet, path, nil)
		body := strings.TrimSpace(rec.Body.String())
		var out []json.RawMessage
		if rec.Code != http.StatusOK || !strings.HasPrefix(body, "[") || json.Unmarshal([]byte(body), &out) != nil {
			t.Errorf("GET %s: %d %s, want a JSON list", path, rec.Code, body)
		}
		return out
	}
	start := func(t *testing.T, m *Manager, h http.Handler) string {
		rec := call(t, h, http.MethodPost, "/api/sessions", createRequest{Config: testConfig(2)})
		var st SessionStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		p := "/api/sessions/" + st.ID
		if rec := call(t, h, http.MethodPost, p+"/bags", BagRequest{App: "shapes", Jobs: jobs, Seed: 4}); rec.Code != http.StatusAccepted {
			t.Fatalf("bags: %d %s", rec.Code, rec.Body)
		}
		if rec := call(t, h, http.MethodPost, p+"/run", nil); rec.Code != http.StatusAccepted {
			t.Fatalf("run: %d %s", rec.Code, rec.Body)
		}
		return p
	}

	t.Run("right after run, and done", func(t *testing.T) {
		m := NewManager(1)
		defer m.Close()
		h := NewAPI(m).Handler()
		p := start(t, m, h)
		if got := list(t, h, p+"/jobs"); len(got) != jobs {
			t.Fatalf("jobs right after run: %d entries, want %d", len(got), jobs)
		}
		list(t, h, p+"/vms")
		m.Wait()
		if got := list(t, h, p+"/jobs"); len(got) != jobs {
			t.Fatalf("jobs after done: %d entries, want %d", len(got), jobs)
		}
		list(t, h, p+"/vms")
	})

	t.Run("mid-run after a detail timeout", func(t *testing.T) {
		m := NewManager(1)
		defer m.Close()
		started, release := make(chan struct{}), make(chan struct{})
		// The run publishes its first snapshot and then stalls until
		// released, with every detail request declined meanwhile.
		m.runHook = func(ctx context.Context, svc *batch.Service) (batch.Report, error) {
			publish, detail := svc.OnSnapshot, svc.SnapshotDetail
			stalled := false
			svc.SnapshotDetail = func() bool { return stalled && detail() }
			svc.OnSnapshot = func(snap batch.Snapshot) {
				publish(snap)
				if !stalled {
					stalled = true
					close(started)
					<-release
				}
			}
			return svc.Run(ctx)
		}
		h := NewAPI(m).Handler()
		p := start(t, m, h)
		<-started
		var wg sync.WaitGroup
		begin := time.Now()
		for _, path := range []string{p + "/jobs", p + "/vms"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := list(t, h, path); len(got) != 0 {
					t.Errorf("GET %s mid-run with no detailed snapshot: %d entries, want none", path, len(got))
				}
			}()
		}
		wg.Wait()
		if waited := time.Since(begin); waited < detailRefreshTimeout {
			t.Fatalf("mid-run listings answered after %v, before the %v detail wait ran out", waited, detailRefreshTimeout)
		}
		close(release)
		m.Wait()
		if got := list(t, h, p+"/jobs"); len(got) != jobs {
			t.Fatalf("jobs after done: %d entries, want %d", len(got), jobs)
		}
		list(t, h, p+"/vms")
	})
}
