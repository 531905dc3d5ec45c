package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mathx"
	"repro/internal/policy"
	"repro/internal/registry"
)

// testModelParams mirrors testConfig's inline model.
func testModelParams() ModelParams {
	return ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24}
}

// driftedLifetimes draws uniform lifetimes — far from the bathtub every
// test entry is registered with, so detectors flag quickly.
func driftedLifetimes(n int, seed uint64) []float64 {
	rng := mathx.NewRNG(seed)
	u := dist.NewUniform(24)
	out := make([]float64, n)
	for i := range out {
		out[i] = dist.Sample(u, rng, 24)
	}
	return out
}

// registerTestModel registers a manual-params entry on the manager.
func registerTestModel(t *testing.T, m *Manager, name string, autoRefit bool) registry.Info {
	t.Helper()
	p := testModelParams()
	info, err := m.RegisterModel(ModelCreateRequest{
		Name: name, VMType: "n1-highcpu-16", Zone: "us-east1-b",
		Model: &p, AutoRefit: autoRefit, MinRefitSamples: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// refConfig is a session config that draws its model from the registry.
func refConfig(seed uint64, ref string) SessionConfig {
	cfg := testConfig(seed)
	cfg.Model = nil
	cfg.ModelRef = ref
	return cfg
}

// runReport creates a session from cfg on b (a receipt, when its home
// shard is remote), runs it (runOn), and returns the session plus its
// marshaled report.
func runReport(t *testing.T, b Backend, cfg SessionConfig) (*Session, string) {
	t.Helper()
	s, err := b.CreateCtx(context.Background(), "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, runOn(t, b, s.ID())
}

// runOn submits one bag to session id through b's HTTP API, runs it, and
// returns its marshaled report (see reportOf). The API forwards each
// request for a remote-homed session to its shard.
func runOn(t *testing.T, b Backend, id string) string {
	t.Helper()
	h := NewAPI(b).Handler()
	p := "/api/sessions/" + id
	if rec := call(t, h, "POST", p+"/bags", BagRequest{App: "shapes", Jobs: 10, Jitter: 0.02, Seed: 5}); rec.Code != http.StatusAccepted {
		t.Fatalf("bags: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, h, "POST", p+"/run", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	return reportOf(t, h, id)
}

// TestModelAPILifecycle drives the /api/models endpoints end to end:
// register (recipe and params), list/get, strict decoding, observation
// ingest, refit gating, and the stats counters.
func TestModelAPILifecycle(t *testing.T) {
	mgr := NewManager(1)
	h := NewAPI(mgr).Handler()

	// A recipe-registered model carries fit provenance.
	rec, out := doJSON(t, h, "POST", "/api/models", map[string]any{
		"name": "fitted", "vm_type": "n1-highcpu-16", "zone": "us-east1-b",
		"fit": map[string]any{"samples": 400, "seed": 7},
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("recipe register: %d %s", rec.Code, rec.Body)
	}
	versions := out["versions"].([]any)
	v1 := versions[0].(map[string]any)
	if v1["family"] != "bathtub" || v1["source"] != "recipe" || v1["samples"].(float64) != 400 {
		t.Fatalf("recipe provenance = %v", v1)
	}
	if v1["fitted_at"] == "" {
		t.Fatal("recipe version has no timestamp")
	}

	// Params-registered entry.
	rec, _ = doJSON(t, h, "POST", "/api/models", map[string]any{
		"name": "east", "vm_type": "n1-highcpu-16", "zone": "us-east1-b",
		"model":             map[string]any{"a": 0.45, "tau1": 1.0, "tau2": 0.8, "b": 24, "l": 24},
		"min_refit_samples": 150,
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("params register: %d %s", rec.Code, rec.Body)
	}

	// Error cases: duplicate name, both sources, neither source, bad
	// scenario, unknown fields, unknown model.
	for _, c := range []struct {
		body map[string]any
		want int
	}{
		{map[string]any{"name": "east", "vm_type": "n1-highcpu-16", "zone": "us-east1-b",
			"model": map[string]any{"a": 0.45, "tau1": 1, "tau2": 0.8, "b": 24, "l": 24}}, http.StatusConflict},
		{map[string]any{"name": "x", "vm_type": "n1-highcpu-16", "zone": "us-east1-b",
			"model": map[string]any{"a": 0.45, "tau1": 1, "tau2": 0.8, "b": 24, "l": 24},
			"fit":   map[string]any{"samples": 100}}, http.StatusBadRequest},
		{map[string]any{"name": "x", "vm_type": "n1-highcpu-16", "zone": "us-east1-b"}, http.StatusBadRequest},
		{map[string]any{"name": "x", "vm_type": "bogus", "zone": "us-east1-b",
			"model": map[string]any{"a": 0.45, "tau1": 1, "tau2": 0.8, "b": 24, "l": 24}}, http.StatusBadRequest},
		{map[string]any{"name": "x", "vm_type": "n1-highcpu-16", "zone": "us-east1-b", "bogus": 1}, http.StatusBadRequest},
	} {
		rec, _ := doJSON(t, h, "POST", "/api/models", c.body)
		if rec.Code != c.want {
			t.Fatalf("register %v: %d (want %d) %s", c.body, rec.Code, c.want, rec.Body)
		}
	}
	if rec, _ := doJSON(t, h, "GET", "/api/models/ghost", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model get: %d", rec.Code)
	}
	if rec, _ := doJSON(t, h, "POST", "/api/models/ghost/observations",
		map[string]any{"lifetimes": []float64{1}}); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model ingest: %d", rec.Code)
	}

	// Listing preserves creation order.
	rec, _ = doJSON(t, h, "GET", "/api/models", nil)
	var list []registry.Info
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "fitted" || list[1].Name != "east" {
		t.Fatalf("model list = %+v", list)
	}

	// Refit before any drift: conflict.
	if rec, _ := doJSON(t, h, "POST", "/api/models/east/refit", nil); rec.Code != http.StatusConflict {
		t.Fatalf("premature refit: %d", rec.Code)
	}

	// Drift until flagged, then until refit-ready, then refit.
	rec, out = doJSON(t, h, "POST", "/api/models/east/observations",
		map[string]any{"lifetimes": driftedLifetimes(100, 2)})
	if rec.Code != http.StatusAccepted || out["flagged"] != true {
		t.Fatalf("drift ingest: %d %v", rec.Code, out)
	}
	if rec, _ := doJSON(t, h, "POST", "/api/models/east/refit", nil); rec.Code != http.StatusConflict {
		t.Fatalf("undersampled refit: %d", rec.Code)
	}
	doJSON(t, h, "POST", "/api/models/east/observations",
		map[string]any{"lifetimes": driftedLifetimes(200, 3)})
	rec, out = doJSON(t, h, "POST", "/api/models/east/refit", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("refit: %d %s", rec.Code, rec.Body)
	}
	if out["version"].(float64) != 2 || out["source"] != "refit" || out["family"] != "bathtub" {
		t.Fatalf("refit version = %v", out)
	}

	// Stats counters surface in /api/stats.
	rec, out = doJSON(t, h, "GET", "/api/stats", nil)
	models := out["models"].(map[string]any)
	if models["entries"].(float64) != 2 || models["versions_published"].(float64) != 3 ||
		models["refits_run"].(float64) != 1 || models["change_points_flagged"].(float64) != 1 {
		t.Fatalf("model stats = %v", models)
	}
}

// TestModelRefScenarioMismatchRejected: a session may only reference
// models registered for its own (vm type, zone) — a model fitted for one
// environment silently mispredicts another's.
func TestModelRefScenarioMismatchRejected(t *testing.T) {
	mgr := NewManager(1)
	registerTestModel(t, mgr, "east", false)
	cfg := refConfig(1, "east")
	cfg.VMType = "n1-highcpu-32"
	if _, err := mgr.Create("", cfg); err == nil {
		t.Fatal("session with a mismatched model_ref scenario was accepted")
	}
	cfg = refConfig(1, "east")
	cfg.Zone = "us-central1-c"
	if _, err := mgr.Create("", cfg); err == nil {
		t.Fatal("session with a mismatched model_ref zone was accepted")
	}
}

// TestModelRefPinningByteIdentical is the versioning contract: a session
// pinned at @v1 keeps producing byte-identical reports after a refit
// publishes v2, while new @latest sessions pick up v2.
func TestModelRefPinningByteIdentical(t *testing.T) {
	mgr := NewManager(2)
	registerTestModel(t, mgr, "east", false)

	sA, repA := runReport(t, mgr, refConfig(1, "east"))
	if got := sA.Status().Config.ModelRef; got != "east@v1" {
		t.Fatalf("session pinned %q, want east@v1", got)
	}

	// Control: an inline-params session with the same parameters and seed
	// must agree exactly with the ref session — the ref adds no noise.
	_, repInline := runReport(t, mgr, testConfig(1))
	if repInline != repA {
		t.Fatalf("model_ref session diverged from inline-params session:\n ref:    %s\n inline: %s", repA, repInline)
	}

	// Drift and refit: v2 published.
	if _, err := mgr.IngestObservations("east", driftedLifetimes(300, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.RefitModel("east", "refit"); err != nil {
		t.Fatal(err)
	}

	// The pinned session's report is byte-identical post-refit.
	rep, err := sA.Report()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(rep)
	if string(raw) != repA {
		t.Fatal("pinned session's report changed after refit")
	}
	// Re-running the same pinned config reproduces it too.
	_, repA2 := runReport(t, mgr, refConfig(1, "east@v1"))
	if repA2 != repA {
		t.Fatalf("re-run of pinned @v1 config diverged:\n before: %s\n after:  %s", repA, repA2)
	}

	// A new @latest session pins v2 and simulates with v2's parameters: its
	// report must match an inline-params session carrying exactly those
	// parameters (and the refit genuinely changed them).
	sB, repB := runReport(t, mgr, refConfig(1, "east@latest"))
	if got := sB.Status().Config.ModelRef; got != "east@v2" {
		t.Fatalf("latest session pinned %q, want east@v2", got)
	}
	res2, err := mgr.registry.Resolve("east@v2")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Version.Params == registry.Params(*testConfig(1).Model) {
		t.Fatal("refit republished v1's exact parameters; test needs distinct versions")
	}
	cfg2 := testConfig(1)
	cfg2.Model = &ModelParams{A: res2.Version.Params.A, Tau1: res2.Version.Params.Tau1,
		Tau2: res2.Version.Params.Tau2, B: res2.Version.Params.B, L: res2.Version.Params.L}
	_, repInline2 := runReport(t, mgr, cfg2)
	if repB != repInline2 {
		t.Fatalf("@latest session diverged from inline v2 params:\n ref:    %s\n inline: %s", repB, repInline2)
	}
}

// TestPolicyCacheKeyedByVersionParams pins the policy-cache contract
// pinned creates rely on: two versions with different parameters get
// distinct shared schedulers/planners, while a re-resolved pinned version
// built again from its parameters (a distinct *core.Model with identical
// parameters, as every shard create builds) shares them.
func TestPolicyCacheKeyedByVersionParams(t *testing.T) {
	mgr := NewManager(1)
	registerTestModel(t, mgr, "east", false)
	if _, err := mgr.IngestObservations("east", driftedLifetimes(300, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.RefitModel("east", "refit"); err != nil {
		t.Fatal(err)
	}
	r1, err := mgr.registry.Resolve("east@v1")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mgr.registry.Resolve("east@v2")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Version.Params == r2.Version.Params {
		t.Fatal("refit published identical parameters; test needs distinct versions")
	}
	// model builds a fresh *core.Model from a version's parameters, as a
	// shard does for every pinned create.
	model := func(res registry.Resolved) *core.Model {
		t.Helper()
		m, err := res.Version.Params.Model()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	s1 := policy.SharedScheduler(model(r1), policy.MinimizeFailure)
	s2 := policy.SharedScheduler(model(r2), policy.MinimizeFailure)
	if s1 == s2 {
		t.Fatal("different version params shared one scheduler cache entry")
	}
	p1 := policy.SharedPlanner(model(r1), 0.05, 0.25)
	p2 := policy.SharedPlanner(model(r2), 0.05, 0.25)
	if p1 == p2 {
		t.Fatal("different version params shared one planner cache entry")
	}
	// Same pinned version re-resolved: identical params, shared artifacts
	// even through a second Resolve call.
	r1b, err := mgr.registry.Resolve("east@v1")
	if err != nil {
		t.Fatal(err)
	}
	if policy.SharedScheduler(model(r1b), policy.MinimizeFailure) != s1 {
		t.Fatal("same version params missed the scheduler cache")
	}
	if policy.SharedPlanner(model(r1b), 0.05, 0.25) != p1 {
		t.Fatal("same version params missed the planner cache")
	}
}

// TestSweepModelRefs covers the per-cell model_ref grid dimension: one
// sweep compares a pinned old version against @latest, order-stably.
func TestSweepModelRefs(t *testing.T) {
	mgr := NewManager(2)
	registerTestModel(t, mgr, "east", false)
	if _, err := mgr.IngestObservations("east", driftedLifetimes(300, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.RefitModel("east", "refit"); err != nil {
		t.Fatal(err)
	}

	req := SweepRequest{
		VMTypes:   []string{"n1-highcpu-16"},
		Policies:  []string{PolicyReuse, PolicyMemoryless},
		VMs:       4,
		Seed:      3,
		ModelRefs: []string{"east@v1", "east@latest"},
		Bag:       BagRequest{App: "shapes", Jobs: 8, Seed: 11},
	}
	rep, err := mgr.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("sweep produced %d cells, want 4", len(rep.Cells))
	}
	// Grid order: policies outer, refs innermost.
	wantRefs := []string{"east@v1", "east@latest", "east@v1", "east@latest"}
	wantPins := []string{"east@v1", "east@v2", "east@v1", "east@v2"}
	for i, cell := range rep.Cells {
		if cell.Error != "" {
			t.Fatalf("cell %d failed: %s", i, cell.Error)
		}
		if cell.ModelRef != wantRefs[i] {
			t.Fatalf("cell %d ref = %q, want %q", i, cell.ModelRef, wantRefs[i])
		}
		s, err := mgr.Get(cell.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Status().Config.ModelRef; got != wantPins[i] {
			t.Fatalf("cell %d pinned %q, want %q", i, got, wantPins[i])
		}
		if cell.Report == nil {
			t.Fatalf("cell %d has no report", i)
		}
	}
	// model_refs is exclusive with a shared model spec.
	p := testModelParams()
	req.Model = &p
	if _, err := mgr.Sweep(req); err == nil {
		t.Fatal("sweep accepted model_refs alongside model")
	}
}

// TestConcurrentIngestRefitCreate races observation ingest, manual refits,
// and model_ref session creation against one entry; run under -race it is
// the registry's concurrency gate.
func TestConcurrentIngestRefitCreate(t *testing.T) {
	mgr := NewManager(2)
	registerTestModel(t, mgr, "east", false)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Ingester: keeps the detector hot with drifted batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := uint64(0); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := mgr.IngestObservations("east", driftedLifetimes(60, 100+seed)); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	// Refitter: fires manual refits, tolerating not-ready/in-progress.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := mgr.RefitModel("east", "refit")
			if err != nil && !errors.Is(err, registry.ErrNotReady) && !errors.Is(err, registry.ErrRefitInProgress) {
				t.Errorf("refit: %v", err)
				return
			}
		}
	}()
	// Creators: resolve and pin @latest while versions move underneath.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, err := mgr.Create("", refConfig(uint64(c*1000+i), "east@latest"))
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if ref := s.Status().Config.ModelRef; ref == "east@latest" || ref == "east" {
					t.Errorf("session %s not pinned: %q", s.ID(), ref)
					return
				}
			}
		}(c)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The registry is still coherent: versions numbered 1..n, every pinned
	// ref resolvable.
	info, err := mgr.ModelInfo("east")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range info.Versions {
		if v.Number != i+1 {
			t.Fatalf("version sequence corrupt: %+v", info.Versions)
		}
	}
	for _, s := range mgr.List() {
		if _, err := mgr.registry.Resolve(s.Status().Config.ModelRef); err != nil {
			t.Fatalf("session %s pinned unresolvable ref: %v", s.ID(), err)
		}
	}
}

// TestOnlineModelEndToEnd is the acceptance scenario over HTTP with a
// durable store: drifted trace in through the API, change point flagged,
// auto-refit publishes v2 with provenance, @latest sessions move to v2
// while a @v1-pinned session's report stays byte-identical — across a
// restart from the data dir (first restart replays the raw WAL records,
// second the compacted model_state).
func TestOnlineModelEndToEnd(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(2)
	st1 := openStore(t, dir)
	if err := m1.Restore(st1); err != nil {
		t.Fatal(err)
	}
	h := NewAPI(m1).Handler()

	p := testModelParams()
	rec, _ := doJSON(t, h, "POST", "/api/models", map[string]any{
		"name": "east", "vm_type": "n1-highcpu-16", "zone": "us-east1-b",
		"model":      map[string]any{"a": p.A, "tau1": p.Tau1, "tau2": p.Tau2, "b": p.B, "l": p.L},
		"auto_refit": true, "min_refit_samples": 150,
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}

	// A session pinned before any drift.
	sA, repA := runReport(t, m1, refConfig(1, "east"))
	if got := sA.Status().Config.ModelRef; got != "east@v1" {
		t.Fatalf("pinned %q", got)
	}

	// Ingest the drifted synthetic trace in API-sized batches until the
	// detector flags and the background auto-refit publishes v2.
	for i := uint64(0); i < 4; i++ {
		rec, _ := doJSON(t, h, "POST", "/api/models/east/observations",
			map[string]any{"lifetimes": driftedLifetimes(100, 10+i)})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("ingest %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	var info registry.Info
	deadline := time.Now().Add(30 * time.Second)
	for {
		info = mustModelInfo(t, m1, "east")
		if len(info.Versions) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-refit never published v2: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	v2 := info.Versions[1]
	if v2.Source != "auto-refit" || v2.Family != "bathtub" || v2.Samples < 150 || v2.FittedAt == "" {
		t.Fatalf("auto-refit provenance = %+v", v2)
	}
	if info.Flagged {
		t.Fatal("flag not cleared by auto-refit")
	}

	// @latest now pins v2; the v1-pinned report is unchanged.
	sB, _ := runReport(t, m1, refConfig(1, "east@latest"))
	if got := sB.Status().Config.ModelRef; got != "east@v2" {
		t.Fatalf("latest pinned %q", got)
	}
	rep, err := sA.Report()
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := json.Marshal(rep); string(raw) != repA {
		t.Fatal("pinned report changed after auto-refit")
	}

	// Restart 1: replays model_create + model_obs + model_version records.
	m1.Wait()
	obsBefore := mustModelInfo(t, m1, "east").Observations
	st1.Close()
	for boot := 1; boot <= 2; boot++ {
		m2 := NewManager(2)
		st2 := openStore(t, dir)
		if err := m2.Restore(st2); err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		got := mustModelInfo(t, m2, "east")
		if len(got.Versions) != 2 {
			t.Fatalf("boot %d restored %d versions", boot, len(got.Versions))
		}
		if fmt.Sprintf("%+v", got.Versions) != fmt.Sprintf("%+v", info.Versions) {
			t.Fatalf("boot %d version provenance diverged:\n before: %+v\n after:  %+v", boot, info.Versions, got.Versions)
		}
		if got.Observations != obsBefore {
			t.Fatalf("boot %d high-water mark = %d, want %d", boot, got.Observations, obsBefore)
		}
		// The pinned session still serves the byte-identical report.
		sr, err := m2.Get(sA.ID())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sr.Report()
		if err != nil {
			t.Fatal(err)
		}
		if raw, _ := json.Marshal(rep); string(raw) != repA {
			t.Fatalf("boot %d: pinned report not byte-identical", boot)
		}
		// New @latest sessions resolve v2 on the restored registry.
		sC, err := m2.Create("", refConfig(9, "east"))
		if err != nil {
			t.Fatal(err)
		}
		if got := sC.Status().Config.ModelRef; got != "east@v2" {
			t.Fatalf("boot %d: fresh session pinned %q", boot, got)
		}
		st2.Close()
	}
}

// TestAutoRefitRearmedAfterRestart: a process that dies between
// refit-readiness and the background refit's version commit must publish
// the pending version after restart, even with no further ingest traffic.
func TestAutoRefitRearmedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	// The pre-crash history, written directly: an auto-refit entry plus
	// enough drifted observations to flag and fill the refit buffer. No
	// version record — the crash beat the background worker to the WAL.
	cfg := registry.EntryConfig{AutoRefit: true, MinRefitSamples: 150}
	prov := registry.Provenance{Family: "manual", Params: registry.Params(testModelParams()), Source: "register"}
	if _, err := st.Append(kindModelCreate, "east", modelCreateRecord{
		Scenario: registry.Scenario{VMType: "n1-highcpu-16", Zone: "us-east1-b"},
		Config:   cfg, Version: prov,
	}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		if _, err := st.Append(kindModelObs, "east", modelObsRecord{Lifetimes: driftedLifetimes(100, 20+i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	m := NewManager(1)
	if err := m.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := mustModelInfo(t, m, "east")
		if len(info.Versions) == 2 {
			if info.Versions[1].Source != "auto-refit" {
				t.Fatalf("re-armed refit provenance = %+v", info.Versions[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restored refit-ready entry never refitted: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Wait()
}

func mustModelInfo(t *testing.T, m *Manager, name string) registry.Info {
	t.Helper()
	info, err := m.ModelInfo(name)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestModelCrashReplayRebuildsDetector simulates a kill -9 right after a
// partial ingest history (no compaction, no terminal anything): the
// replayed detector must continue the stream exactly where it died.
func TestModelCrashReplayRebuildsDetector(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(1)
	st1 := openStore(t, dir)
	if err := m1.Restore(st1); err != nil {
		t.Fatal(err)
	}
	registerTestModel(t, m1, "east", false)
	// 137 observations leaves a partially filled window; 100 of them are
	// past the flag threshold path but below patience, keeping streak
	// state interesting.
	if _, err := m1.IngestObservations("east", driftedLifetimes(80, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.IngestObservations("east", driftedLifetimes(57, 3)); err != nil {
		t.Fatal(err)
	}
	want := mustModelInfo(t, m1, "east")
	// kill -9: the store is abandoned without Close ordering niceties
	// (Close only releases the flock; the WAL is fsynced per append).
	st1.Close()

	m2 := NewManager(1)
	st2 := openStore(t, dir)
	if err := m2.Restore(st2); err != nil {
		t.Fatal(err)
	}
	got := mustModelInfo(t, m2, "east")
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("replayed entry diverged:\n before: %+v\n after:  %+v", want, got)
	}
	// Continue the stream on the restored manager and on a fresh
	// store-less manager fed the identical full history: outcomes must
	// match observation for observation (the replayed window lines up).
	mFresh := NewManager(1)
	registerTestModel(t, mFresh, "east", false)
	if _, err := mFresh.IngestObservations("east", driftedLifetimes(80, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mFresh.IngestObservations("east", driftedLifetimes(57, 3)); err != nil {
		t.Fatal(err)
	}
	cont := driftedLifetimes(200, 4)
	resFresh, err := mFresh.IngestObservations("east", cont)
	if err != nil {
		t.Fatal(err)
	}
	resRestored, err := m2.IngestObservations("east", cont)
	if err != nil {
		t.Fatal(err)
	}
	if resFresh != resRestored {
		t.Fatalf("continuation diverged:\n fresh:    %+v\n restored: %+v", resFresh, resRestored)
	}
}
