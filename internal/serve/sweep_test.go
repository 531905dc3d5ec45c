package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/placement"
	"repro/internal/registry"
)

func sweepBody() map[string]any {
	return map[string]any{
		"vm_types": []string{"n1-highcpu-16", "n1-highcpu-32"},
		"zones":    []string{"us-east1-b"},
		"policies": []string{PolicyReuse, PolicyOnDemand},
		"vms":      8,
		"seed":     9,
		"model":    map[string]any{"a": 0.45, "tau1": 1.0, "tau2": 0.8, "b": 24, "l": 24},
		"bag":      map[string]any{"app": "nanoconfinement", "jobs": 16, "seed": 2},
	}
}

// TestSweepGridAggregation runs the acceptance grid: 2 VM types x 1 zone x
// 2 policies = 4 cells, aggregated into one comparison report.
func TestSweepGridAggregation(t *testing.T) {
	h := NewAPI(NewManager(4)).Handler()
	rec, _ := doJSON(t, h, "POST", "/api/sweep", sweepBody())
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", rec.Code, rec.Body)
	}
	var rep SweepReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(rep.Cells))
	}
	// Grid order: vm_types outermost, policies innermost.
	wantOrder := []struct{ vt, pol string }{
		{"n1-highcpu-16", PolicyReuse},
		{"n1-highcpu-16", PolicyOnDemand},
		{"n1-highcpu-32", PolicyReuse},
		{"n1-highcpu-32", PolicyOnDemand},
	}
	for i, w := range wantOrder {
		c := rep.Cells[i]
		if c.VMType != w.vt || c.Policy != w.pol {
			t.Fatalf("cell %d = %s/%s, want %s/%s", i, c.VMType, c.Policy, w.vt, w.pol)
		}
		if c.Error != "" {
			t.Fatalf("cell %d failed: %s", i, c.Error)
		}
		if c.Report == nil || c.Report.JobsCompleted != 16 {
			t.Fatalf("cell %d report: %+v", i, c.Report)
		}
	}
	if rep.Cheapest == "" || rep.Fastest == "" {
		t.Fatalf("aggregation missing best cells: %+v", rep)
	}
	// On preemptible VMs the reuse policy must be cheaper per job than the
	// on-demand deployment of the same type (the Figure 9a contrast).
	if rep.Cells[0].Report.CostPerJob >= rep.Cells[1].Report.CostPerJob {
		t.Fatalf("preemptible reuse ($%v/job) not cheaper than on-demand ($%v/job)",
			rep.Cells[0].Report.CostPerJob, rep.Cells[1].Report.CostPerJob)
	}
	// The sweep's sessions remain inspectable.
	s, err := NewAPI(NewManager(1)).b.Get("s-001")
	if err == nil {
		t.Fatalf("fresh manager unexpectedly has sessions: %v", s.ID())
	}
}

// TestSweepOrderStable runs the same sweep twice (cells execute in
// whatever order the pool schedules) and demands byte-identical
// aggregation, modulo session ids which increment across sweeps.
func TestSweepOrderStable(t *testing.T) {
	run := func(parallelism int) []SweepCell {
		mgr := NewManager(parallelism)
		var req SweepRequest
		b, _ := json.Marshal(sweepBody())
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		rep, err := mgr.Sweep(req)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Cells {
			rep.Cells[i].SessionID = "" // ids depend on manager history
		}
		return rep.Cells
	}
	a := run(4)
	b := run(1)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("sweep aggregation not order-stable:\n%s\n%s", aj, bj)
	}
}

// TestSweepValidation exercises the error paths.
func TestSweepValidation(t *testing.T) {
	h := NewAPI(NewManager(1)).Handler()

	rec, out := doJSON(t, h, "POST", "/api/sweep", map[string]any{
		"vms": 4, "bag": map[string]any{"app": "shapes", "jobs": 1},
	})
	if rec.Code != http.StatusBadRequest || out["error"] == nil {
		t.Fatalf("empty grid: %d %s", rec.Code, rec.Body)
	}

	// A cell-level failure (unknown policy) is reported in the cell, not as
	// a request failure, and other cells still run.
	body := sweepBody()
	body["policies"] = []string{PolicyOnDemand, "warp-drive"}
	body["vm_types"] = []string{"n1-highcpu-16"}
	rec, _ = doJSON(t, h, "POST", "/api/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep with bad cell: %d %s", rec.Code, rec.Body)
	}
	var rep SweepReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || rep.Cells[1].Error == "" || rep.Cells[0].Error != "" {
		t.Fatalf("cells: %+v", rep.Cells)
	}
	if rep.Cells[0].Report == nil {
		t.Fatal("good cell missing report")
	}
}

// topologySweep is a sweep over one scenario with a model_refs dimension
// and cells that fail: "warp-drive" is no policy (its cells are minted ids
// and refused by their shard), and "west@v1" names no model (its cells
// never get an id).
func topologySweep() SweepRequest {
	return SweepRequest{
		VMTypes:   []string{"n1-highcpu-16"},
		Policies:  []string{PolicyReuse, PolicyMemoryless, "warp-drive", PolicyOnDemand},
		ModelRefs: []string{"east@latest", "east@v1", "west@v1"},
		VMs:       8,
		Seed:      4,
		Bag:       BagRequest{App: "shapes", Jobs: 6, Jitter: 0.01, Seed: 2},
	}
}

// publishEast registers the model topologySweep names on r's control
// plane and publishes a second version, so "east@latest" and "east@v1" pin
// different parameters.
func publishEast(t *testing.T, r *Router) {
	t.Helper()
	p := testModelParams()
	if _, err := r.RegisterModel(ModelCreateRequest{Name: "east", VMType: "n1-highcpu-16", Zone: "us-east1-b", Model: &p}); err != nil {
		t.Fatal(err)
	}
	v2 := ModelParams{A: 0.5, Tau1: 1.2, Tau2: 0.7, B: 24, L: 24}
	if _, err := r.control().registry.Publish("east",
		registry.Provenance{Family: "manual", Params: v2, Source: "refit"}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSweepByteIdenticalAcrossTopologies sends one sweep request to
// Router{1}, Router{4} and Router{1 local + 1 remote}, each with the same
// model published twice on its control plane, and demands the same
// SweepReport bytes from all three — session ids, per-cell errors, reports
// and the cheapest/fastest picks included.
func TestSweepByteIdenticalAcrossTopologies(t *testing.T) {
	_, srv := startShard(t, 2)
	mixed, err := NewRouterTopology([]string{"", srv.URL}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, tc := range []struct {
		name string
		r    *Router
	}{{"1", NewRouter(1, 2)}, {"4", NewRouter(4, 2)}, {"local+remote", mixed}} {
		r := tc.r
		defer r.Close()
		publishEast(t, r)
		rec := call(t, NewAPI(r).Handler(), "POST", "/api/sweep", topologySweep())
		if rec.Code != http.StatusOK {
			t.Fatalf("Router{%s} sweep: %d %s", tc.name, rec.Code, rec.Body)
		}
		if want == "" {
			want = rec.Body.String()
			var rep SweepReport
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			homes, failed := map[int]bool{}, 0
			for _, c := range rep.Cells {
				if c.Report != nil {
					homes[placement.Shard(c.SessionID, 2)] = true
				} else {
					failed++
				}
			}
			if len(homes) != 2 || failed != 6 {
				t.Fatalf("cells homed on shards %v of 2 with %d failed, want both shards and 6 failed:\n%s", homes, failed, want)
			}
			continue
		}
		if got := rec.Body.String(); got != want {
			t.Errorf("Router{%s} sweep differs from Router{1}:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestSweepOneShardRequestPerGroup runs a sweep whose cells span a local
// and a remote shard, and whose remote runs are held past the router's
// 2 s per-op deadline. The remote group costs exactly one shard request,
// POST /shard/sweep, and completes: the deadline bounds only the wait for
// the group's headers, which the shard sends once its cells have started.
func TestSweepOneShardRequestPerGroup(t *testing.T) {
	m, srv := startShard(t, 2)
	ct := &countingTransport{}
	opts := fastRemoteOptions(&http.Client{Transport: ct})
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	publishEast(t, r)
	m.runHook = func(ctx context.Context, svc *batch.Service) (batch.Report, error) {
		select {
		case <-time.After(opts.OpTimeout + 500*time.Millisecond):
		case <-ctx.Done():
		}
		return svc.Run(ctx)
	}

	ct.take()
	rep, err := r.Sweep(topologySweep())
	if err != nil {
		t.Fatal(err)
	}
	if calls := ct.take(); len(calls) != 1 || calls[0] != "POST "+shardSweepPath {
		t.Errorf("sweep made shard requests %q, want the one POST %s", calls, shardSweepPath)
	}
	if rep.Partial {
		t.Fatalf("sweep partial: %+v", rep.Cells)
	}
	remote := 0
	for _, c := range rep.Cells {
		if c.Report != nil && placement.Shard(c.SessionID, 2) == 1 {
			remote++
		}
	}
	if remote == 0 {
		t.Fatalf("no remote-homed cell completed: %+v", rep.Cells)
	}
}
