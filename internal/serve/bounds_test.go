package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/store"
)

// The size-bound tests send one request just past each bound to every
// endpoint that takes it, including the POST /shard/sweep a router sends a
// remote shard, and require a 400 naming the field. A bound sits well
// above any size the repo uses, so the sizes at the bound are checked on
// the checks alone, without allocating them.

// requireRefused fails unless code is a 400 whose error names field.
func requireRefused(t *testing.T, what string, code int, out map[string]any, field string) {
	t.Helper()
	msg, _ := out["error"].(string)
	if code != http.StatusBadRequest || !strings.Contains(msg, field) {
		t.Fatalf("%s: %d %v, want a 400 naming %s", what, code, out, field)
	}
}

// postShardSweep sends one sweep group to a fresh stored shard and returns
// its answer and the records the shard appended.
func postShardSweep(t *testing.T, req shardSweepRequest) (int, map[string]any, int) {
	t.Helper()
	m := NewShardManager(1)
	t.Cleanup(m.Close)
	if err := m.Restore(openStore(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	rec, out := doJSON(t, ShardHandler(m), "POST", shardSweepPath, req)
	return rec.Code, out, m.StoreStats().Appended
}

func TestBagJobsBounded(t *testing.T) {
	if err := (BagRequest{App: "shapes", Jobs: maxBagJobs}).checkSize(); err != nil {
		t.Fatalf("a bag at the bound: %v", err)
	}
	over := BagRequest{App: "shapes", Jobs: maxBagJobs + 1}
	h := NewAPI(NewManager(1)).Handler()
	rec, out := doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": testConfig(1)})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	id := out["id"].(string)
	for _, path := range []string{"/api/sessions/" + id + "/bags", "/api/sessions/" + id + "/estimate"} {
		rec, out = doJSON(t, h, "POST", path, over)
		requireRefused(t, path, rec.Code, out, "jobs")
	}
	rec, out = doJSON(t, h, "POST", "/api/sweep", SweepRequest{VMTypes: []string{"n1-highcpu-16"}, VMs: 4, Model: testConfig(1).Model, Bag: over})
	requireRefused(t, "/api/sweep", rec.Code, out, "jobs")
	code, out, appended := postShardSweep(t, shardSweepRequest{Cells: []shardCreateRequest{{ID: "s-001", Config: testConfig(1)}}, Bag: over})
	requireRefused(t, shardSweepPath, code, out, "jobs")
	if appended != 0 {
		t.Fatalf("refused shard sweep appended %d records", appended)
	}
}

func TestVMsBounded(t *testing.T) {
	at := testConfig(1)
	at.VMs = maxVMs
	if err := at.withDefaults().checkSizes(); err != nil {
		t.Fatalf("a cluster at the bound: %v", err)
	}
	over := testConfig(1)
	over.VMs = maxVMs + 1
	h := NewAPI(NewManager(1)).Handler()
	rec, out := doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": over})
	requireRefused(t, "/api/sessions", rec.Code, out, "vms")
	rec, out = doJSON(t, h, "POST", "/api/sweep", SweepRequest{VMTypes: []string{"n1-highcpu-16"}, VMs: maxVMs + 1, Model: over.Model, Bag: BagRequest{App: "shapes", Jobs: 3}})
	requireRefused(t, "/api/sweep", rec.Code, out, "vms")
	code, out, appended := postShardSweep(t, shardSweepRequest{Cells: []shardCreateRequest{{ID: "s-001", Config: over}}, Bag: BagRequest{App: "shapes", Jobs: 3}})
	requireRefused(t, shardSweepPath, code, out, "vms")
	if appended != 0 {
		t.Fatalf("refused shard sweep appended %d records", appended)
	}
}

func TestFitSamplesBounded(t *testing.T) {
	at := testConfig(1)
	at.Model, at.Fit = nil, &FitSpec{Samples: maxFitSamples}
	if err := at.withDefaults().checkSizes(); err != nil {
		t.Fatalf("a fit at the bound: %v", err)
	}
	over := testConfig(1)
	over.Model, over.Fit = nil, &FitSpec{Samples: maxFitSamples + 1, Seed: 1}
	h := NewAPI(NewManager(1)).Handler()
	rec, out := doJSON(t, h, "POST", "/api/sessions", map[string]any{"config": over})
	requireRefused(t, "/api/sessions", rec.Code, out, "fit.samples")
	rec, out = doJSON(t, h, "POST", "/api/models", ModelCreateRequest{Name: "east", VMType: "n1-highcpu-16", Zone: "us-east1-b", Fit: over.Fit})
	requireRefused(t, "/api/models", rec.Code, out, "fit.samples")
	rec, out = doJSON(t, h, "POST", "/api/sweep", SweepRequest{VMTypes: []string{"n1-highcpu-16"}, VMs: 4, Fit: over.Fit, Bag: BagRequest{App: "shapes", Jobs: 3}})
	requireRefused(t, "/api/sweep", rec.Code, out, "fit.samples")
	code, out, appended := postShardSweep(t, shardSweepRequest{Cells: []shardCreateRequest{{ID: "s-001", Config: over}}, Bag: BagRequest{App: "shapes", Jobs: 3}})
	requireRefused(t, shardSweepPath, code, out, "fit.samples")
	if appended != 0 {
		t.Fatalf("refused shard sweep appended %d records", appended)
	}
}

func TestObservationLifetimesBounded(t *testing.T) {
	m := NewManager(1)
	t.Cleanup(m.Close)
	if err := m.Restore(openStore(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	h := NewAPI(m).Handler()
	p := testModelParams()
	if rec, _ := doJSON(t, h, "POST", "/api/models", ModelCreateRequest{Name: "east", VMType: "n1-highcpu-16", Zone: "us-east1-b", Model: &p}); rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	const path = "/api/models/east/observations"
	before := m.StoreStats().Appended
	rec, out := doJSON(t, h, "POST", path, ObservationsRequest{Lifetimes: driftedLifetimes(maxObsLifetimes+1, 1)})
	requireRefused(t, path, rec.Code, out, "lifetimes")
	if n := m.StoreStats().Appended - before; n != 0 {
		t.Fatalf("refused observation batch appended %d records", n)
	}
	if rec, _ := doJSON(t, h, "POST", path, ObservationsRequest{Lifetimes: driftedLifetimes(maxObsLifetimes, 1)}); rec.Code != http.StatusAccepted {
		t.Fatalf("a batch at the bound: %d %s", rec.Code, rec.Body)
	}
}

// TestReplayIgnoresRequestBounds boots a log written before the bounds
// existed: a session past the VM bound holding a bag past the job bound,
// and a model fed an observation batch past the lifetimes bound. The
// bounds refuse requests only, so the data dir must boot with the session
// and the model as logged. (The sample bound sits in the same config
// check as the VM bound; a recipe past it is left out because fitting it
// takes seconds.)
func TestReplayIgnoresRequestBounds(t *testing.T) {
	big := testConfig(1)
	big.VMs = maxVMs + 1
	scenario := registry.Scenario{VMType: "n1-highcpu-16", Zone: "us-east1-b"}
	var wal []byte
	for i, r := range []struct {
		kind, id string
		v        any
	}{
		{kindCreate, "s-001", createRecord{Config: big.withDefaults()}},
		{kindBag, "s-001", BagRequest{App: "shapes", Jobs: maxBagJobs + 1, Seed: 1}},
		{kindModelCreate, "east", modelCreateRecord{Scenario: scenario, Version: registry.Provenance{Family: "manual", Params: testModelParams(), Source: "register"}}},
		{kindModelObs, "east", modelObsRecord{Lifetimes: driftedLifetimes(maxObsLifetimes+1, 1)}},
	} {
		line, err := json.Marshal(store.Record{Seq: uint64(i + 1), Kind: r.kind, ID: r.id, Data: mustJSON(t, r.v)})
		if err != nil {
			t.Fatal(err)
		}
		wal = append(append(wal, line...), '\n')
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManager(1)
	defer m.Close()
	if err := m.Restore(openStore(t, dir)); err != nil {
		t.Fatalf("boot: %v", err)
	}
	s, err := m.Get("s-001")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.Config.VMs != maxVMs+1 || st.JobsSubmitted != maxBagJobs+1 {
		t.Fatalf("restored s-001: %d VMs, %d jobs; want %d, %d", st.Config.VMs, st.JobsSubmitted, maxVMs+1, maxBagJobs+1)
	}
	info, err := m.ModelInfo("east")
	if err != nil {
		t.Fatal(err)
	}
	if info.Observations != maxObsLifetimes+1 {
		t.Fatalf("restored model east has %d observations, want %d", info.Observations, maxObsLifetimes+1)
	}
}
