package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testConfig is a cheap, model-inline session config (the parameters of
// batch's test model).
func testConfig(seed uint64) SessionConfig {
	return SessionConfig{
		VMType: "n1-highcpu-16",
		Zone:   "us-east1-b",
		VMs:    4,
		Seed:   seed,
		Model:  &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
	}
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			return rec, nil // arrays; caller inspects rec
		}
	}
	return rec, out
}

// waitDone polls a session's status until it leaves the running state.
func waitDone(t *testing.T, h http.Handler, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec, out := doJSON(t, h, "GET", "/api/sessions/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("get %s: %d %s", id, rec.Code, rec.Body)
		}
		switch out["state"] {
		case string(StateDone), string(StateFailed):
			return out
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session %s did not finish", id)
	return nil
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	h := NewAPI(NewManager(2)).Handler()

	rec, out := doJSON(t, h, "POST", "/api/sessions",
		map[string]any{"name": "demo", "config": testConfig(7)})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	id := out["id"].(string)
	if out["state"] != string(StateCreated) {
		t.Fatalf("state = %v", out["state"])
	}

	rec, out = doJSON(t, h, "POST", "/api/sessions/"+id+"/bags",
		map[string]any{"app": "shapes", "jobs": 20, "jitter": 0.02, "seed": 4})
	if rec.Code != http.StatusAccepted || out["submitted"].(float64) != 20 {
		t.Fatalf("bags: %d %s", rec.Code, rec.Body)
	}

	rec, out = doJSON(t, h, "POST", "/api/sessions/"+id+"/estimate",
		map[string]any{"app": "shapes", "jobs": 20})
	if rec.Code != http.StatusOK || out["expected_cost_usd"].(float64) <= 0 {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
	}

	// Report before run: 404 with structured error.
	rec, out = doJSON(t, h, "GET", "/api/sessions/"+id+"/report", nil)
	if rec.Code != http.StatusNotFound || out["error"] == "" {
		t.Fatalf("early report: %d %s", rec.Code, rec.Body)
	}

	rec, _ = doJSON(t, h, "POST", "/api/sessions/"+id+"/run", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}

	final := waitDone(t, h, id)
	if final["state"] != string(StateDone) {
		t.Fatalf("final state: %v (%v)", final["state"], final["error"])
	}
	prog := final["progress"].(map[string]any)
	if prog["jobs_done"].(float64) != 20 || prog["virtual_hours"].(float64) <= 0 {
		t.Fatalf("progress: %v", prog)
	}

	rec, out = doJSON(t, h, "GET", "/api/sessions/"+id+"/report", nil)
	if rec.Code != http.StatusOK || out["jobs_completed"].(float64) != 20 {
		t.Fatalf("report: %d %s", rec.Code, rec.Body)
	}
	if out["total_cost_usd"].(float64) <= 0 {
		t.Fatalf("cost: %v", out["total_cost_usd"])
	}

	rec, _ = doJSON(t, h, "GET", "/api/sessions/"+id+"/jobs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("jobs: %d", rec.Code)
	}
	var jobs []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &jobs); err != nil || len(jobs) != 20 {
		t.Fatalf("jobs = %d (%v)", len(jobs), err)
	}

	// Second run conflicts; late bags conflict.
	rec, _ = doJSON(t, h, "POST", "/api/sessions/"+id+"/run", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("second run: %d", rec.Code)
	}
	rec, _ = doJSON(t, h, "POST", "/api/sessions/"+id+"/bags",
		map[string]any{"app": "shapes", "jobs": 2})
	if rec.Code != http.StatusConflict {
		t.Fatalf("late bag: %d", rec.Code)
	}

	// Delete, then the session is gone.
	rec, _ = doJSON(t, h, "DELETE", "/api/sessions/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	rec, _ = doJSON(t, h, "GET", "/api/sessions/"+id, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", rec.Code)
	}
}

func TestTwoSessionsDifferentConfigsConcurrently(t *testing.T) {
	// The acceptance scenario: two sessions with different configs running
	// concurrently in one process via the HTTP API.
	h := NewAPI(NewManager(2)).Handler()

	cfgA := testConfig(7)
	cfgB := testConfig(11)
	cfgB.Policy = PolicyOnDemand
	cfgB.VMs = 2

	ids := make([]string, 2)
	for i, cfg := range []SessionConfig{cfgA, cfgB} {
		rec, out := doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": cfg})
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, rec.Code, rec.Body)
		}
		ids[i] = out["id"].(string)
		rec, _ = doJSON(t, h, "POST", "/api/sessions/"+ids[i]+"/bags",
			map[string]any{"app": "nanoconfinement", "jobs": 30, "seed": 3})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("bags %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// Start both before either finishes.
	for _, id := range ids {
		rec, _ := doJSON(t, h, "POST", "/api/sessions/"+id+"/run", nil)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("run %s: %d", id, rec.Code)
		}
	}
	var reports [2]map[string]any
	for i, id := range ids {
		if st := waitDone(t, h, id); st["state"] != string(StateDone) {
			t.Fatalf("session %s: %v (%v)", id, st["state"], st["error"])
		}
		_, reports[i] = doJSON(t, h, "GET", "/api/sessions/"+id+"/report", nil)
	}
	if reports[0]["jobs_completed"].(float64) != 30 || reports[1]["jobs_completed"].(float64) != 30 {
		t.Fatalf("incomplete runs: %v / %v", reports[0], reports[1])
	}
	// The on-demand session must see zero preemptions; the preemptible one
	// is a different simulation entirely.
	if reports[1]["preemptions"].(float64) != 0 {
		t.Fatalf("on-demand session saw preemptions: %v", reports[1]["preemptions"])
	}
}

func TestStrictRequestHandling(t *testing.T) {
	h := NewAPI(NewManager(1)).Handler()

	// Unknown fields are rejected on every POST body.
	rec, out := doJSON(t, h, "POST", "/api/sessions",
		map[string]any{"config": testConfig(1), "bogus": true})
	if rec.Code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "bogus") {
		t.Fatalf("unknown field: %d %s", rec.Code, rec.Body)
	}

	// A retired config field is unknown too: the DP worker count is
	// process-wide (-planner-parallelism), not per session.
	var cfg map[string]any
	raw, err := json.Marshal(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg["planner_parallelism"] = 2
	rec, out = doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": cfg})
	if rec.Code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "planner_parallelism") {
		t.Fatalf("planner_parallelism: %d %s", rec.Code, rec.Body)
	}

	// Malformed JSON.
	req := httptest.NewRequest("POST", "/api/sessions", strings.NewReader("{"))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed: %d", rr.Code)
	}

	// Trailing garbage after the JSON value.
	req = httptest.NewRequest("POST", "/api/sessions", strings.NewReader(`{"config":{}} {"x":1}`))
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("trailing: %d", rr.Code)
	}

	// Wrong method: structured JSON 405 with Allow.
	rec, out = doJSON(t, h, "DELETE", "/api/sweep", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("405: %d", rec.Code)
	}
	if out["error"] == nil {
		t.Fatalf("405 body not structured: %s", rec.Body)
	}
	if rec.Header().Get("Allow") == "" {
		t.Fatal("405 without Allow header")
	}

	// Unknown path: structured JSON 404.
	rec, out = doJSON(t, h, "GET", "/api/nope", nil)
	if rec.Code != http.StatusNotFound || out["error"] == nil {
		t.Fatalf("404: %d %s", rec.Code, rec.Body)
	}

	// Validation errors carry the stable "error" key.
	bad := testConfig(1)
	bad.VMs = 3
	bad.GangSize = 2
	rec, out = doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": bad})
	if rec.Code != http.StatusBadRequest || out["error"] == nil {
		t.Fatalf("bad shape: %d %s", rec.Code, rec.Body)
	}
	noModel := testConfig(1)
	noModel.Model = nil
	rec, _ = doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": noModel})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("model-less reuse: %d", rec.Code)
	}
	// A checkpoint step beyond the model deadline must be a 400, not a
	// handler panic in the DP planner.
	hugeStep := testConfig(1)
	hugeStep.CheckpointDelta = 0.05
	hugeStep.CheckpointStep = 100
	rec, out = doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": hugeStep})
	if rec.Code != http.StatusBadRequest || out["error"] == nil {
		t.Fatalf("oversized checkpoint_step: %d %s", rec.Code, rec.Body)
	}

	// Running a session with no bags is a 400.
	rec, out = doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": testConfig(1)})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	id := out["id"].(string)
	rec, _ = doJSON(t, h, "POST", "/api/sessions/"+id+"/run", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bagless run: %d", rec.Code)
	}

	// Out-of-range jitter is a 400, not a handler panic (workload.NewBag
	// panics on jitter outside [0,1)).
	for _, jitter := range []float64{-0.1, 1.0, 2.5} {
		rec, out = doJSON(t, h, "POST", "/api/sessions/"+id+"/bags",
			map[string]any{"app": "shapes", "jobs": 3, "jitter": jitter})
		if rec.Code != http.StatusBadRequest || out["error"] == nil {
			t.Fatalf("jitter %v: %d %s", jitter, rec.Code, rec.Body)
		}
		rec, _ = doJSON(t, h, "POST", "/api/sessions/"+id+"/estimate",
			map[string]any{"app": "shapes", "jobs": 3, "jitter": jitter})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("estimate jitter %v: %d", jitter, rec.Code)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	h := NewAPI(NewManager(1)).Handler()
	rec, out := doJSON(t, h, "GET", "/api/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if out["sessions"] == nil || out["schedule_cache"] == nil {
		t.Fatalf("stats payload: %s", rec.Body)
	}
}
