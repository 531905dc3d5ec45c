package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/placement"
)

// Shard-protocol economy tests: behind a remote-homed session every edge
// request costs exactly one router-to-shard round trip, forwarded as-is,
// and the shard stays the authority over its sessions.

// countingTransport records the requests a RemoteBackend sends, then
// passes each to the shard transport the default client uses.
type countingTransport struct {
	inner shardTransport
	mu    sync.Mutex
	reqs  []string
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.reqs = append(c.reqs, req.Method+" "+req.URL.Path)
	c.mu.Unlock()
	return c.inner.RoundTrip(req)
}

// take returns the requests recorded since the last take and resets.
func (c *countingTransport) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.reqs
	c.reqs = nil
	return out
}

// call serves one request through h with a fixed trace ID (so statuses,
// which carry the creating trace, compare across topologies) and returns
// the response.
func call(t testing.TB, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set(obs.TraceHeader, "00000000000c0ffe")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// lifecycle drives one session through create → bags → run → events (read
// to EOF) → report → delete and returns its id and every response body.
// Before the events request it blocks until the run is over without
// touching the transport (waitRun), so the stream — opening state, last
// progress, closing state — is the same on every run.
func lifecycle(t *testing.T, h http.Handler, i int, waitRun func(id string)) (string, []string) {
	t.Helper()
	rec := call(t, h, "POST", "/api/sessions", createRequest{Name: fmt.Sprintf("rt-%d", i), Config: testConfig(uint64(i))})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	var st SessionStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	bodies := []string{rec.Body.String()}
	p := "/api/sessions/" + st.ID
	for _, s := range []struct {
		method, path string
		body         any
		code         int
	}{
		{"POST", p + "/bags", BagRequest{App: "shapes", Jobs: 6 + i, Jitter: 0.01, Seed: uint64(i)}, http.StatusAccepted},
		{"POST", p + "/run", nil, http.StatusAccepted},
		{"GET", p + "/events", nil, http.StatusOK},
		{"GET", p + "/report", nil, http.StatusOK},
		{"DELETE", p, nil, http.StatusOK},
	} {
		if strings.HasSuffix(s.path, "/events") {
			waitRun(st.ID)
		}
		rec := call(t, h, s.method, s.path, s.body)
		if rec.Code != s.code {
			t.Fatalf("%s %s: %d %s", s.method, s.path, rec.Code, rec.Body)
		}
		bodies = append(bodies, rec.Body.String())
	}
	return st.ID, bodies
}

// reportOf follows session id's event stream through h until its run is
// over, then returns the report h serves, as json.Marshal writes it.
func reportOf(t testing.TB, h http.Handler, id string) string {
	t.Helper()
	p := "/api/sessions/" + id
	if rec := call(t, h, "GET", p+"/events", nil); rec.Code != http.StatusOK {
		t.Fatalf("events of %s: %d %s", id, rec.Code, rec.Body)
	}
	rec := call(t, h, "GET", p+"/report", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("report of %s: %d %s", id, rec.Code, rec.Body)
	}
	return strings.TrimSuffix(rec.Body.String(), "\n")
}

// statusOf returns the status h serves for session id.
func statusOf(t testing.TB, h http.Handler, id string) SessionStatus {
	t.Helper()
	rec := call(t, h, "GET", "/api/sessions/"+id, nil)
	var st SessionStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("status of %s: %d %s", id, rec.Code, rec.Body)
	}
	return st
}

// waitOn returns a waitRun for lifecycle that resolves sessions on the
// given backends by home shard (a shard server's own Manager for a remote
// slot, so the wait costs no shard request).
func waitOn(t *testing.T, shards ...Backend) func(id string) {
	return func(id string) {
		t.Helper()
		s, err := shards[placement.Shard(id, len(shards))].Get(id)
		if err != nil {
			t.Fatal(err)
		}
		s.Wait()
	}
}

// TestRemoteSessionOneRoundTripPerRequest drives create → bags → run →
// events → report → delete through the public API of a router whose shard
// 1 is a shard server, and pins the shard protocol's cost: six requests
// for the six edge requests of a remote-homed session, one for a status
// read, one for a cancel. Every response body must equal, byte for byte,
// what an all-local two-shard router answers for the same create sequence.
// A router over the same shard that never saw the session pays the same
// one request per bag submission, run and report read.
func TestRemoteSessionOneRoundTripPerRequest(t *testing.T) {
	m, srv := startShard(t, 2)
	ct := &countingTransport{}
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, &RemoteOptions{Client: &http.Client{Transport: ct}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	local := NewRouter(2, 2)
	defer local.Close()
	remoteAPI, localAPI := NewAPI(r).Handler(), NewAPI(local).Handler()

	remoteIDs := 0
	for i := 1; i <= 6; i++ {
		_, want := lifecycle(t, localAPI, i, waitOn(t, local, local))
		ct.take()
		id, got := lifecycle(t, remoteAPI, i, waitOn(t, r.Shard(0), m))
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("session %s, request %d: mixed-topology body differs from all-local:\n got %s\nwant %s", id, k+1, got[k], want[k])
			}
		}
		calls := ct.take()
		if placement.Shard(id, 2) == 0 {
			if len(calls) != 0 {
				t.Errorf("local-homed session %s made shard requests %q", id, calls)
			}
			continue
		}
		remoteIDs++
		p := "/api/sessions/" + id
		wantCalls := []string{"POST /shard/sessions", "POST " + p + "/bags", "POST " + p + "/run",
			"GET " + p + "/events", "GET " + p + "/report", "DELETE " + p}
		if strings.Join(calls, "\n") != strings.Join(wantCalls, "\n") {
			t.Errorf("remote-homed session %s: %d shard requests %q, want the 6 %q", id, len(calls), calls, wantCalls)
		}
	}
	if remoteIDs == 0 {
		t.Fatal("no session homed on the remote shard")
	}

	createRemote := func(cfg SessionConfig) string {
		t.Helper()
		for {
			rec := call(t, remoteAPI, "POST", "/api/sessions", createRequest{Config: cfg})
			var st SessionStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
			if placement.Shard(st.ID, 2) == 1 {
				return st.ID
			}
		}
	}

	// Routers that have never seen the session: one shard request per
	// edge request all the same.
	id := createRemote(testConfig(1))
	p := "/api/sessions/" + id
	for _, s := range []struct {
		method, path string
		body         any
		code         int
	}{
		{"POST", p + "/bags", BagRequest{App: "shapes", Jobs: 6, Jitter: 0.01, Seed: 1}, http.StatusAccepted},
		{"POST", p + "/run", nil, http.StatusAccepted},
		{"GET", p + "/report", nil, http.StatusOK},
	} {
		if strings.HasSuffix(s.path, "/report") {
			waitOn(t, r.Shard(0), m)(id)
		}
		fresh := &countingTransport{}
		other, err := NewRouterTopology([]string{"", srv.URL}, 2, &RemoteOptions{Client: &http.Client{Transport: fresh}})
		if err != nil {
			t.Fatal(err)
		}
		rec := call(t, NewAPI(other).Handler(), s.method, s.path, s.body)
		other.Close()
		if rec.Code != s.code {
			t.Fatalf("%s %s through a fresh router: %d %s", s.method, s.path, rec.Code, rec.Body)
		}
		if calls := fresh.take(); len(calls) != 1 || calls[0] != s.method+" "+s.path {
			t.Errorf("%s %s through a fresh router made shard requests %q, want the one", s.method, s.path, calls)
		}
	}

	// A status read and a cancel: one shard request each, answered with
	// what the shard sent.
	id = createRemote(slowConfig(1))
	p = "/api/sessions/" + id
	if rec := call(t, remoteAPI, "POST", p+"/bags", BagRequest{App: "shapes", Jobs: slowSessionJobs, Jitter: 0.02, Seed: 3}); rec.Code != http.StatusAccepted {
		t.Fatalf("bags: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, remoteAPI, "POST", p+"/run", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	shardSession, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	waitForProgress(t, shardSession)
	ct.take()
	if rec := call(t, remoteAPI, "GET", p, nil); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"state":"running"`) {
		t.Fatalf("get: %d %s", rec.Code, rec.Body)
	}
	if calls := ct.take(); len(calls) != 1 || calls[0] != "GET "+p {
		t.Errorf("status read made shard requests %q, want one GET %s", calls, p)
	}
	rec := call(t, remoteAPI, "POST", p+"/cancel", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", rec.Code, rec.Body)
	}
	if calls := ct.take(); len(calls) != 1 || calls[0] != "POST "+p+"/cancel" {
		t.Errorf("cancel made shard requests %q, want one POST %s/cancel", calls, p)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(shardSession.Status()); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() || shardSession.Status().State != StateCancelled {
		t.Errorf("cancel answered %s, want the shard's cancelled status %s", rec.Body, want.String())
	}
}

// TestRouterBootAsksEachShardOnce builds a router over two shard servers
// that record every request they serve. Building it sends nothing to
// either; SyncRemotes then sends each exactly one GET /shard/info, and
// closing the router sends nothing more.
func TestRouterBootAsksEachShardOnce(t *testing.T) {
	var mu sync.Mutex
	served := map[int][]string{}
	topology := []string{""}
	for i := 1; i <= 2; i++ {
		m := NewShardManager(1)
		m.SetShardIndex(i)
		t.Cleanup(m.Close)
		h := ShardHandler(m)
		srv := newLoopServer(t, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			mu.Lock()
			served[i] = append(served[i], req.Method+" "+req.URL.Path)
			mu.Unlock()
			h.ServeHTTP(w, req)
		}))
		t.Cleanup(srv.Close)
		topology = append(topology, srv.URL)
	}
	check := func(when string, want []string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		for i := 1; i <= 2; i++ {
			if strings.Join(served[i], ",") != strings.Join(want, ",") {
				t.Errorf("%s, shard %d served %q, want %q", when, i, served[i], want)
			}
		}
	}
	r, err := NewRouterTopology(topology, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("after NewRouterTopology", nil)
	r.SyncRemotes()
	check("after SyncRemotes", []string{"GET /shard/info"})
	r.Close()
	r.Close()
	check("after Close", []string{"GET /shard/info"})
}

// TestRemoteShardStaysAuthoritative deletes a remote-homed session on the
// shard itself, behind the router that created it. Every per-session
// request through the router must still come back with the shard's 404 and
// the body any missing session gets. Then, with the shard partitioned, a
// forwarded events request answers a failed connect with 503 +
// Retry-After, and once the breaker is open it does so without touching
// the network.
func TestRemoteShardStaysAuthoritative(t *testing.T) {
	m, srv := startShard(t, 2)
	inj := faultnet.Wrap(&shardTransport{})
	opts := fastRemoteOptions(inj.Client())
	opts.BreakerCooldown = time.Minute // no half-open probe mid-test
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := NewAPI(r).Handler()
	createRemote := func() string {
		t.Helper()
		for {
			rec := call(t, h, "POST", "/api/sessions", createRequest{Config: testConfig(1)})
			var st SessionStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", rec.Code, rec.Body)
			}
			if placement.Shard(st.ID, 2) == 1 {
				return st.ID
			}
		}
	}

	id := createRemote()
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	local := NewRouter(2, 2)
	defer local.Close()
	missing := call(t, NewAPI(local).Handler(), "GET", "/api/sessions/"+id, nil)
	if missing.Code != http.StatusNotFound {
		t.Fatalf("all-local GET of a missing session: %d %s", missing.Code, missing.Body)
	}
	p := "/api/sessions/" + id
	bag := BagRequest{App: "shapes", Jobs: 4, Seed: 1}
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{"GET", p, nil},
		{"POST", p + "/bags", bag},
		{"POST", p + "/estimate", bag},
		{"POST", p + "/run", nil},
		{"GET", p + "/events", nil},
		{"GET", p + "/report", nil},
		{"GET", p + "/jobs", nil},
		{"GET", p + "/vms", nil},
		{"POST", p + "/cancel", nil},
	} {
		rec := call(t, h, req.method, req.path, req.body)
		if rec.Code != http.StatusNotFound || rec.Body.String() != missing.Body.String() {
			t.Errorf("%s %s on a session deleted behind the router: %d %s, want 404 %s",
				req.method, req.path, rec.Code, rec.Body, missing.Body)
		}
	}

	id = createRemote()
	events := "/api/sessions/" + id + "/events"
	inj.Partition(hostOf(srv.URL))
	for i := 0; i < opts.BreakerThreshold; i++ {
		rec := call(t, h, "GET", events, nil)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("events through a partition: %d (Retry-After %q) %s, want 503 + Retry-After",
				rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
	if got := r.Remote(1).BreakerState(); got != breakerOpen {
		t.Fatalf("breaker = %s after %d failed forwards, want open", got, opts.BreakerThreshold)
	}
	before := len(inj.Trips())
	rec := call(t, h, "GET", events, nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" ||
		!strings.Contains(rec.Body.String(), "circuit breaker open") {
		t.Fatalf("events with the breaker open: %d (Retry-After %q) %s, want a fast 503 + Retry-After",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if after := len(inj.Trips()); after != before {
		t.Fatalf("open breaker still hit the transport (%d -> %d trips)", before, after)
	}
}
