package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/batch"
)

// FuzzShardCreate feeds arbitrary bodies to POST /shard/sessions, the
// create a router sends a shard, through the shard's own handler:
// decodeStrict, then createSession with the pinned model parameters the
// body carries. Nothing may panic. A 201 comes only for a config that
// passes Validate whose parameters — pinned ones for a model_ref, inline
// ones otherwise — build a model; anything else answers a 4xx and appends
// nothing to the shard's store. The seeds are a valid inline-model create,
// a pinned model_ref with its parameters, a model_ref without them, a zero
// tau1, parameters with no mass before the deadline, an empty id, a
// checkpointed session whose deadline is shorter than the default
// checkpoint step, unknown fields, and an id the shard already holds.
//
//	go test -run '^$' -fuzz '^FuzzShardCreate$' -fuzztime 20s ./internal/serve
func FuzzShardCreate(f *testing.F) {
	m := NewShardManager(1)
	f.Cleanup(m.Close)
	if err := m.Restore(openStore(f, f.TempDir())); err != nil {
		f.Fatal(err)
	}
	h := ShardHandler(m)
	post := func(body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/sessions", bytes.NewReader(body)))
		return rec.Code
	}
	body := func(req shardCreateRequest) []byte {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	// s-001 stays on the shard for the whole run: every create reusing it
	// must be refused.
	held := body(shardCreateRequest{ID: "s-001", Config: testConfig(1)})
	if code := post(held); code != http.StatusCreated {
		f.Fatalf("creating the held session = %d, want 201", code)
	}
	p := testModelParams()
	zeroTau1 := p
	zeroTau1.Tau1 = 0
	noMass := ModelParams{A: 0, Tau1: 1, Tau2: 1, B: -1e6, L: 24}
	// A deadline shorter than the default checkpoint step.
	short := p
	short.L = 0.01
	checkpointed := refConfig(8, "east@v1")
	checkpointed.CheckpointDelta = 0.1
	for _, req := range []shardCreateRequest{
		{ID: "s-002", Name: "inline", Config: testConfig(2)},
		{ID: "s-003", Config: refConfig(3, "east@v1"), Params: &p},
		{ID: "s-004", Config: refConfig(4, "east@v1")},
		{ID: "s-005", Config: refConfig(5, "east@v1"), Params: &zeroTau1},
		{ID: "s-006", Config: refConfig(6, "east@v1"), Params: &noMass},
		{ID: "", Config: testConfig(7)},
		{ID: "s-008", Config: checkpointed, Params: &short},
	} {
		f.Add(body(req))
	}
	f.Add([]byte(`{"id":"s-009","config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":4,"model_ref":"east@v1"},"params":{"a":0.45,"tau1":1,"tau2":0.8,"b":24,"l":24},"epoch":7}`))
	f.Add(held)

	f.Fuzz(func(t *testing.T, in []byte) {
		before := m.StoreStats().Appended
		code := post(in)
		appended := m.StoreStats().Appended - before
		if code != http.StatusCreated {
			if code < 400 || code >= 500 {
				t.Fatalf("create answered %d, want 201 or a 4xx", code)
			}
			if appended != 0 {
				t.Fatalf("refused create (%d) appended %d records", code, appended)
			}
			return
		}
		var req shardCreateRequest
		if err := json.Unmarshal(in, &req); err != nil {
			t.Fatalf("201 for a body that does not decode: %v", err)
		}
		cfg := req.Config.withDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("201 for a config Validate refuses: %v", err)
		}
		if (cfg.ModelRef != "") != (req.Params != nil) {
			t.Fatalf("201 with model_ref %q and params %v", cfg.ModelRef, req.Params)
		}
		if req.Params != nil {
			if _, err := req.Params.Model(); err != nil {
				t.Fatalf("201 for pinned parameters that build no model: %v", err)
			}
		}
		if appended != 1 {
			t.Fatalf("acknowledged create appended %d records, want 1", appended)
		}
		// Keep the shard to the held session across inputs.
		if err := m.Delete(req.ID); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzShardSweep feeds arbitrary bodies to POST /shard/sweep, the one
// request a router sends a remote shard for a sweep's group of cells,
// through the shard's own handler, with runs that finish at once. Nothing
// may panic. A 2xx answers one cell per requested cell, in request order
// (a cell that ran carries the id it was sent under); anything else is a
// 4xx that appends nothing to the shard's store. The seeds are a valid
// two-cell group, a pinned model_ref with its parameters, one without
// them, an empty id, an id twice in one group, an id the shard already
// holds, a bag with no jobs, and unknown fields.
//
//	go test -run '^$' -fuzz '^FuzzShardSweep$' -fuzztime 20s ./internal/serve
func FuzzShardSweep(f *testing.F) {
	m := NewShardManager(1)
	f.Cleanup(m.Close)
	m.runHook = func(context.Context, *batch.Service) (batch.Report, error) {
		return batch.Report{JobsCompleted: 1}, nil
	}
	if err := m.Restore(openStore(f, f.TempDir())); err != nil {
		f.Fatal(err)
	}
	h := ShardHandler(m)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	// s-001 stays on the shard for the whole run: every group naming it
	// must be refused.
	held, _ := json.Marshal(shardCreateRequest{ID: "s-001", Config: testConfig(1)})
	if rec := post("/shard/sessions", held); rec.Code != http.StatusCreated {
		f.Fatalf("creating the held session = %d, want 201", rec.Code)
	}
	bag := BagRequest{App: "shapes", Jobs: 3, Seed: 1}
	p := testModelParams()
	for _, req := range []shardSweepRequest{
		{Cells: []shardCreateRequest{{ID: "s-002", Name: "a", Config: testConfig(2)}, {ID: "s-003", Config: testConfig(3)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-004", Config: refConfig(4, "east@v1"), Params: &p}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-005", Config: refConfig(5, "east@v1")}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "", Config: testConfig(6)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-007", Config: testConfig(7)}, {ID: "s-007", Config: testConfig(8)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-001", Config: testConfig(9)}}, Bag: bag},
		{Cells: []shardCreateRequest{{ID: "s-010", Config: testConfig(10)}}, Bag: BagRequest{App: "shapes"}},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"cells":[{"id":"s-011","config":{"vm_type":"n1-highcpu-16","zone":"us-east1-b","vms":4,"model":{"a":0.45,"tau1":1,"tau2":0.8,"b":24,"l":24}},"epoch":7}],"bag":{"app":"shapes","jobs":2},"group":1}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		// The shard allocates what a group asks for, with no bound on a
		// bag's jobs or a config's VMs; skip inputs asking for more than a
		// handful, so one input cannot exhaust the fuzzing process.
		var req shardSweepRequest
		decodeErr := json.Unmarshal(in, &req)
		for _, c := range req.Cells {
			if c.Config.VMs > 64 {
				return
			}
		}
		if len(req.Cells) > 8 || req.Bag.Jobs > 1000 {
			return
		}
		before := m.StoreStats().Appended
		rec := post(shardSweepPath, in)
		appended := m.StoreStats().Appended - before
		if rec.Code/100 != 2 {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("sweep group answered %d, want a 2xx or a 4xx", rec.Code)
			}
			if appended != 0 {
				t.Fatalf("refused sweep group (%d) appended %d records", rec.Code, appended)
			}
			return
		}
		if decodeErr != nil {
			t.Fatalf("%d for a body that does not decode: %v", rec.Code, decodeErr)
		}
		var out struct {
			Cells []cellOutcome `json:"cells"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("undecodable %d answer %q: %v", rec.Code, rec.Body, err)
		}
		if len(out.Cells) != len(req.Cells) {
			t.Fatalf("%d cells answered for %d requested", len(out.Cells), len(req.Cells))
		}
		for k, c := range out.Cells {
			if c.SessionID != "" && c.SessionID != req.Cells[k].ID {
				t.Fatalf("cell %d ran as %s, sent as %s", k, c.SessionID, req.Cells[k].ID)
			}
			if (c.Error == "") == (c.Report == nil) {
				t.Fatalf("cell %d answered error %q and report %v; want exactly one", k, c.Error, c.Report)
			}
			if c.Report != nil {
				// Keep the shard to the held session across inputs.
				if err := m.Delete(c.SessionID); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
