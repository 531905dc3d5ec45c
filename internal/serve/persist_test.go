package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/store"
)

// openStore opens a store.Log in dir, failing the test on error.
func openStore(t testing.TB, dir string) *store.Log {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestRestartRoundTrip is the headline persistence guarantee: run a mix of
// sessions through a stored manager, reopen a fresh manager on the same
// directory, and require byte-identical statuses, reports, and job
// listings.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(2)
	st1 := openStore(t, dir)
	if err := m1.Restore(st1); err != nil {
		t.Fatal(err)
	}

	// Session 1: runs to completion. Session 2: checkpointing, also runs.
	// Session 3: created with a bag but never run. Session 4: created and
	// deleted — must not reappear.
	mkRun := func(cfg SessionConfig, jobs int) *Session {
		s, err := m1.Create("", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: jobs, Jitter: 0.02, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		if err := m1.Run(s); err != nil {
			t.Fatal(err)
		}
		s.Wait()
		return s
	}
	s1 := mkRun(testConfig(1), 12)
	s2 := mkRun(ckptConfig(2), 8)
	s3, err := m1.Create("parked", testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s3.SubmitBag(BagRequest{App: "nanoconfinement", Jobs: 5, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	s4, err := m1.Create("doomed", testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Delete(s4.ID()); err != nil {
		t.Fatal(err)
	}

	marshal := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	type snapshot struct{ status, report, jobs string }
	want := map[string]snapshot{}
	for _, s := range []*Session{s1, s2} {
		rep, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := s.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		st := s.Status()
		st.Restored = false // the restored flag is the one allowed difference
		want[s.ID()] = snapshot{status: marshal(st), report: marshal(rep), jobs: marshal(jobs)}
	}

	// "Restart": a brand-new manager over the same directory (the first
	// store must release its directory lock, as a dead process would).
	st1.Close()
	m2 := NewManager(2)
	if err := m2.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	sessions := m2.List()
	if len(sessions) != 3 {
		ids := []string{}
		for _, s := range sessions {
			ids = append(ids, s.ID())
		}
		t.Fatalf("restored %d sessions (%v), want 3", len(sessions), ids)
	}
	for id, w := range want {
		s, err := m2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Status()
		if !st.Restored {
			t.Fatalf("session %s not marked restored", id)
		}
		st.Restored = false
		if got := marshal(st); got != w.status {
			t.Fatalf("session %s status diverged:\n before: %s\n after:  %s", id, w.status, got)
		}
		rep, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		if got := marshal(rep); got != w.report {
			t.Fatalf("session %s report not byte-identical:\n before: %s\n after:  %s", id, w.report, got)
		}
		jobs, err := s.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if got := marshal(jobs); got != w.jobs {
			t.Fatalf("session %s jobs diverged:\n before: %s\n after:  %s", id, w.jobs, got)
		}
	}

	// The parked session came back runnable: same id, created state, bag
	// intact — running it now must succeed.
	p, err := m2.Get(s3.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Status(); st.State != StateCreated || st.JobsSubmitted != 5 || st.Name != "parked" {
		t.Fatalf("parked session restored as %+v", st)
	}
	if err := m2.Run(p); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if _, err := p.Report(); err != nil {
		t.Fatalf("restored session failed to run: %v", err)
	}
	// The deleted session stayed deleted.
	if _, err := m2.Get(s4.ID()); err == nil {
		t.Fatal("deleted session reappeared after restart")
	}
	// New sessions must not collide with restored ids.
	s5, err := m2.Create("", testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if s5.ID() == s1.ID() || s5.ID() == s2.ID() || s5.ID() == s3.ID() || s5.ID() == s4.ID() {
		t.Fatalf("id collision after restart: %s", s5.ID())
	}
}

// view is a session's client-visible state, marshaled: status (with the
// restored flag cleared — the one allowed difference across a restart),
// report or its error, job listing and VM listing.
type view struct{ status, report, jobs, vms string }

func viewOf(t *testing.T, s *Session) view {
	t.Helper()
	marshal := func(v any, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	st := s.Status()
	st.Restored = false
	rep, repErr := s.Report()
	jobs, jobsErr := s.Jobs()
	vms, vmsErr := s.VMs()
	return view{
		status: marshal(st, nil),
		report: marshal(rep, repErr),
		jobs:   marshal(jobs, jobsErr),
		vms:    marshal(vms, vmsErr),
	}
}

// requireView fails unless got matches want field by field.
func requireView(t *testing.T, what string, want, got view) {
	t.Helper()
	for _, f := range []struct{ name, want, got string }{
		{"status", want.status, got.status},
		{"report", want.report, got.report},
		{"jobs", want.jobs, got.jobs},
		{"vms", want.vms, got.vms},
	} {
		if f.want != f.got {
			t.Fatalf("%s: %s diverged:\n want: %.400s\n got:  %.400s", what, f.name, f.want, f.got)
		}
	}
}

// uncrashedView runs one session of the given inputs to completion on a
// fresh, storeless manager and returns its view: what a restored session
// with the same inputs must serve.
func uncrashedView(t *testing.T, name string, cfg SessionConfig, bags ...BagRequest) view {
	t.Helper()
	m := NewManager(1)
	s, err := m.Create(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bag := range bags {
		if _, _, err := s.SubmitBag(bag); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	return viewOf(t, s)
}

// TestCrashWhileRunningRecoversByRerun simulates a kill -9 after the run
// record: the log holds the session's inputs only, so restore re-runs it
// and the session must serve exactly what an uncrashed run of the same
// inputs serves — across a second restart too, whose log is the first
// boot's compaction.
func TestCrashWhileRunningRecoversByRerun(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	cfg := testConfig(1).withDefaults()
	bag := BagRequest{App: "shapes", Jobs: 4, Seed: 1}
	if _, err := st.Append("create", "s-001", createRecord{Name: "crashed", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("bag", "s-001", bag); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("run", "s-001", nil); err != nil {
		t.Fatal(err)
	}
	// Nothing after the run record: the process died mid-run. Reopen the
	// store (the "restart") so the records are replayed.
	st.Close()
	want := uncrashedView(t, "crashed", cfg, bag)

	for boot := 1; boot <= 2; boot++ {
		m := NewManager(1)
		st := openStore(t, dir)
		if err := m.Restore(st); err != nil {
			t.Fatal(err)
		}
		s, err := m.Get("s-001")
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Status(); got.State != StateDone || !got.Restored {
			t.Fatalf("boot %d: state = %s restored=%v (%q), want a restored done session", boot, got.State, got.Restored, got.Error)
		}
		requireView(t, fmt.Sprintf("boot %d", boot), want, viewOf(t, s))
		// Terminal: a rerun conflicts, Done is closed.
		if err := m.Run(s); err == nil {
			t.Fatalf("boot %d: recovered session was runnable", boot)
		}
		select {
		case <-s.Done():
		default:
			t.Fatalf("boot %d: restored terminal session's Done channel is open", boot)
		}
		m.Close()
		st.Close()
	}
}

// TestCancelledStatePersists cancels a running session, restarts, and
// expects the restored session to serve byte-identical status, error, job
// and VM listings: the cancelled record keeps only the stop point, and the
// replay stops the recomputed run exactly there.
func TestCancelledStatePersists(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(1)
	st1 := openStore(t, dir)
	if err := m1.Restore(st1); err != nil {
		t.Fatal(err)
	}
	// Closing the managers ends their maintenance goroutines, which would
	// otherwise keep both 120k-job sessions reachable after the test.
	defer m1.Close()
	s := startSlowSession(t, m1, slowSessionJobs)
	waitForProgress(t, s)
	if err := m1.Cancel(s.ID()); err != nil {
		t.Fatal(err)
	}
	if got := s.Status().State; got != StateCancelled {
		t.Fatalf("state after cancel = %s", got)
	}
	want := viewOf(t, s)

	st1.Close()
	m2 := NewManager(1)
	if err := m2.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	s2, err := m2.Get(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	status := s2.Status()
	if status.State != StateCancelled {
		t.Fatalf("restored state = %s, want cancelled", status.State)
	}
	if status.Error == "" {
		t.Fatal("restored cancelled session lost its diagnostic")
	}
	requireView(t, "restored cancelled session", want, viewOf(t, s2))
}

// TestLegacyDataDirBoots replays a log in the format written before the
// WAL kept only inputs: a done record carrying the report and job listing,
// a failed record, and a cancelled record carrying the job listing. It must
// boot; the done and failed sessions are re-run from their inputs (the
// failed one's inputs run clean, so it recovers done), and the cancelled
// one serves what its record holds.
func TestLegacyDataDirBoots(t *testing.T) {
	// Reference runs on a storeless manager: ids s-001..s-003 match the
	// hand-written log below.
	ref := NewManager(1)
	runRef := func(cfg SessionConfig, bag BagRequest) *Session {
		s, err := ref.Create("legacy", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitBag(bag); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	doneBag := BagRequest{App: "shapes", Jobs: 12, Jitter: 0.02, Seed: 3}
	failedBag := BagRequest{App: "nanoconfinement", Jobs: 6, Seed: 2}
	slowBag := BagRequest{App: "shapes", Jobs: slowSessionJobs, Jitter: 0.02, Seed: 3}
	done := runRef(testConfig(1), doneBag)
	done.Wait()
	failed := runRef(testConfig(2), failedBag)
	failed.Wait()
	cancelled := runRef(slowConfig(3), slowBag)
	waitForProgress(t, cancelled)
	if err := ref.Cancel(cancelled.ID()); err != nil {
		t.Fatal(err)
	}
	want := map[string]view{done.ID(): viewOf(t, done), failed.ID(): viewOf(t, failed), cancelled.ID(): viewOf(t, cancelled)}

	// The older terminal payload: the job listing and progress, plus the
	// report on a done record and the diagnostic otherwise.
	payload := func(s *Session, withReport bool, errMsg string) map[string]any {
		out := map[string]any{"jobs": json.RawMessage(want[s.ID()].jobs), "progress": s.Status().Progress}
		if withReport {
			out["report"] = json.RawMessage(want[s.ID()].report)
		}
		if errMsg != "" {
			out["error"] = errMsg
		}
		return out
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	for _, r := range []struct {
		kind, id string
		v        any
	}{
		{"create", done.ID(), createRecord{Name: "legacy", Config: testConfig(1).withDefaults()}},
		{"bag", done.ID(), doneBag},
		{"run", done.ID(), nil},
		{"done", done.ID(), payload(done, true, "")},
		{"create", failed.ID(), createRecord{Name: "legacy", Config: testConfig(2).withDefaults()}},
		{"bag", failed.ID(), failedBag},
		{"run", failed.ID(), nil},
		{"failed", failed.ID(), payload(failed, false, "batch: session run panicked: injected")},
		{"create", cancelled.ID(), createRecord{Name: "legacy", Config: slowConfig(3).withDefaults()}},
		{"bag", cancelled.ID(), slowBag},
		{"run", cancelled.ID(), nil},
		{"cancelled", cancelled.ID(), payload(cancelled, false, cancelled.Status().Error)},
	} {
		if _, err := st.Append(r.kind, r.id, r.v); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	m := NewManager(1)
	if err := m.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for id, w := range want {
		s, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		requireView(t, "legacy session "+id, w, viewOf(t, s))
	}
	if got := want[failed.ID()].status; !strings.Contains(got, `"state":"done"`) {
		t.Fatalf("failed session's inputs did not run clean: %s", got)
	}
}

// TestDeletedSessionIDNeverReused covers the compaction edge: a deleted
// session's create record is erased by the boot-time compaction, but its
// id must still never be minted again on later boots.
func TestDeletedSessionIDNeverReused(t *testing.T) {
	dir := t.TempDir()

	m1 := NewManager(1)
	st1 := openStore(t, dir)
	if err := m1.Restore(st1); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Create("keep", testConfig(1)); err != nil {
		t.Fatal(err)
	}
	s2, err := m1.Create("drop", testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Delete(s2.ID()); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	// Boot 2 compacts away the deleted session's history...
	m2 := NewManager(1)
	st2 := openStore(t, dir)
	if err := m2.Restore(st2); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	// ...and boot 3 must still not reuse its id.
	m3 := NewManager(1)
	if err := m3.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	s3, err := m3.Create("fresh", testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if s3.ID() == s2.ID() {
		t.Fatalf("deleted session id %s was reused after compaction", s2.ID())
	}
}

// TestRetiredConfigFieldStillRestores replays a create record written
// while session configs still carried "planner_parallelism": the API now
// rejects the field (strict decoding), but WAL replay decodes leniently, so
// the old session restores and runs.
func TestRetiredConfigFieldStillRestores(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	raw, err := json.Marshal(createRecord{Name: "old", Config: ckptConfig(1).withDefaults()})
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec["config"].(map[string]any)["planner_parallelism"] = 2
	if _, err := st.Append("create", "s-001", rec); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("bag", "s-001", BagRequest{App: "shapes", Jobs: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	m := NewManager(1)
	if err := m.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	s, err := m.Get("s-001")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	if got := s.Status(); got.State != StateDone {
		t.Fatalf("restored session ran to %s (%s), want done", got.State, got.Error)
	}
}

// legacyModelRefLog writes the records of one model_ref session, pinned to
// east@v1, as logs wrote them before create records carried the pinned
// version's parameters: a create with no "params", a bag and a run.
// before is written ahead of them.
func legacyModelRefLog(t *testing.T, dir, id string, before ...store.Record) {
	t.Helper()
	st := openStore(t, dir)
	defer st.Close()
	for _, rec := range before {
		if _, err := st.Append(rec.Kind, rec.ID, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []struct {
		kind string
		v    any
	}{
		{kindCreate, createRecord{Name: "legacy", Config: refConfig(1, "east@v1").withDefaults()}},
		{kindBag, BagRequest{App: "shapes", Jobs: 10, Jitter: 0.02, Seed: 5}},
		{kindRun, nil},
	} {
		if _, err := st.Append(r.kind, id, r.v); err != nil {
			t.Fatal(err)
		}
	}
}

// requireLegacyBoots restores dirs twice through boot, which returns the
// restored backend and a func that stops it, and requires the session id
// to come back both times pinned to east@v1 with the report want. Before
// the second boot it checks what the first boot's compaction left: the
// create carries east@v1's parameters, and no replica record survives.
func requireLegacyBoots(t *testing.T, dirs []string, id, want string, boot func(stores []Store) (Backend, func())) {
	t.Helper()
	for i := 1; i <= 2; i++ {
		stores := make([]Store, len(dirs))
		for j, dir := range dirs {
			st := openStore(t, dir)
			stores[j] = st
			if i == 1 {
				continue
			}
			for _, rec := range st.Records() {
				if rec.Kind == legacyReplicaKind {
					t.Fatalf("replica record %s survived the boot compaction", rec.ID)
				}
				if rec.Kind != kindCreate || rec.ID != id {
					continue
				}
				var cr createRecord
				if err := json.Unmarshal(rec.Data, &cr); err != nil {
					t.Fatal(err)
				}
				if cr.Params == nil || *cr.Params != testModelParams() {
					t.Fatalf("compacted create record carries params %v, want east@v1's %v", cr.Params, testModelParams())
				}
			}
		}
		b, stop := boot(stores)
		s, err := b.Get(id)
		if err != nil {
			t.Fatalf("boot %d: %v", i, err)
		}
		if got := s.Status().Config.ModelRef; got != "east@v1" {
			t.Fatalf("boot %d: session pinned %q, want east@v1", i, got)
		}
		rep, err := s.Report()
		if err != nil {
			t.Fatalf("boot %d: %v", i, err)
		}
		if raw, _ := json.Marshal(rep); string(raw) != want {
			t.Fatalf("boot %d: report differs from the inline-parameter run:\n  %s\nvs\n  %s", i, raw, want)
		}
		stop()
		for _, st := range stores {
			st.(*store.Log).Close()
		}
	}
}

// TestLegacyModelRefCreateBoots boots a control plane's log whose
// model_ref create predates logged parameters, with a refit (v2) published
// after the create. Restore pins the session to east@v1's parameters from
// the restored registry — on a Manager and on a Router{2}, where the
// session may re-home — and its report matches an inline-parameter run.
func TestLegacyModelRefCreateBoots(t *testing.T) {
	_, want := runReport(t, NewManager(1), testConfig(1))
	v2 := testModelParams()
	v2.A = 0.5
	modelRecs := []store.Record{
		{Kind: kindModelCreate, ID: "east", Data: mustJSON(t, modelCreateRecord{
			Scenario: registry.Scenario{VMType: "n1-highcpu-16", Zone: "us-east1-b"},
			Version:  registry.Provenance{Family: "manual", Params: testModelParams(), Source: "register"},
		})},
	}
	versionRec := store.Record{Kind: kindModelVersion, ID: "east", Data: mustJSON(t, registry.Version{
		Number: 2, Provenance: registry.Provenance{Family: "manual", Params: v2, Source: "refit"},
	})}
	t.Run("manager", func(t *testing.T) {
		dir := t.TempDir()
		legacyModelRefLog(t, dir, "s-001", modelRecs...)
		st := openStore(t, dir)
		if _, err := st.Append(versionRec.Kind, versionRec.ID, versionRec.Data); err != nil {
			t.Fatal(err)
		}
		st.Close()
		requireLegacyBoots(t, []string{dir}, "s-001", want, func(stores []Store) (Backend, func()) {
			m := NewManager(1)
			if err := m.Restore(stores[0]); err != nil {
				t.Fatal(err)
			}
			return m, m.Close
		})
	})
	t.Run("router", func(t *testing.T) {
		root := t.TempDir()
		legacyModelRefLog(t, root, "s-002", append(modelRecs, versionRec)...)
		shard1 := store.ShardDir(root, 1)
		if err := os.MkdirAll(shard1, 0o755); err != nil {
			t.Fatal(err)
		}
		requireLegacyBoots(t, []string{root, shard1}, "s-002", want, func(stores []Store) (Backend, func()) {
			r := NewRouter(2, 2)
			if err := r.Restore(stores); err != nil {
				t.Fatal(err)
			}
			return r, r.Close
		})
	})
}

// TestLegacyShardDataDirBoots boots a remote shard's data dir in the
// format written while the control plane replicated its registry to every
// shard: a replica record holding the entry's versions, and a model_ref
// session whose create record carries no parameters. The shard pins the
// session from its own log's replica record, its report is byte-identical
// to an inline-parameter run of the same numbers, and a second boot
// restores from the compacted log, which holds the parameters and no
// replica record.
func TestLegacyShardDataDirBoots(t *testing.T) {
	_, want := runReport(t, NewManager(1), testConfig(1))
	// The entry as the last push left it: v2 was published after the
	// session pinned v1.
	replica := `{"epoch":1760000000000000000,"entry":{"seq":2,"name":"east",` +
		`"scenario":{"vm_type":"n1-highcpu-16","zone":"us-east1-b"},"versions":[` +
		`{"version":1,"family":"manual","params":{"a":0.45,"tau1":1,"tau2":0.8,"b":24,"l":24},"source":"register"},` +
		`{"version":2,"family":"manual","params":{"a":0.5,"tau1":1.2,"tau2":0.7,"b":24,"l":24},"source":"refit"}]}}`
	dir := t.TempDir()
	legacyModelRefLog(t, dir, "s-002", store.Record{Kind: "replica", ID: "east", Data: json.RawMessage(replica)})
	requireLegacyBoots(t, []string{dir}, "s-002", want, func(stores []Store) (Backend, func()) {
		m := NewShardManager(1)
		m.SetShardIndex(1)
		if err := m.Restore(stores[0]); err != nil {
			t.Fatal(err)
		}
		return m, m.Close
	})
}

// mustJSON marshals v, failing the test on error.
func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
