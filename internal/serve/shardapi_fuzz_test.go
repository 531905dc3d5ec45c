package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
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
