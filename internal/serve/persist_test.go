package serve

import (
	"encoding/json"
	"testing"

	"repro/internal/store"
)

// openStore opens a store.Log in dir, failing the test on error.
func openStore(t *testing.T, dir string) *store.Log {
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

// TestCrashWhileRunningRecoversAsFailed simulates a kill -9 between the
// run record and any terminal record: on restore the session must surface
// as failed with a diagnostic, not as created or silently done.
func TestCrashWhileRunningRecoversAsFailed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	cfg := testConfig(1).withDefaults()
	if _, err := st.Append("create", "s-001", createRecord{Name: "crashed", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("bag", "s-001", BagRequest{App: "shapes", Jobs: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append("run", "s-001", nil); err != nil {
		t.Fatal(err)
	}
	// No terminal record: the process died mid-run. Reopen the store (the
	// "restart") so the records are replayed.
	st.Close()

	m := NewManager(1)
	st2 := openStore(t, dir)
	if err := m.Restore(st2); err != nil {
		t.Fatal(err)
	}
	s, err := m.Get("s-001")
	if err != nil {
		t.Fatal(err)
	}
	status := s.Status()
	if status.State != StateFailed {
		t.Fatalf("state = %s, want failed", status.State)
	}
	if status.Error == "" {
		t.Fatal("crashed session recovered without a diagnostic")
	}
	// Terminal: report conflicts, rerun conflicts, Done is closed.
	if _, err := s.Report(); err == nil {
		t.Fatal("crashed session served a report")
	}
	if err := m.Run(s); err == nil {
		t.Fatal("crashed session was runnable")
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("restored terminal session's Done channel is open")
	}

	// The recovery is itself durable: a second restart (whose boot-time
	// compaction rewrote the snapshot) sees the same failed state.
	st2.Close()
	m2 := NewManager(1)
	if err := m2.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Get("s-001")
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Status().State; got != StateFailed {
		t.Fatalf("second restart state = %s, want failed", got)
	}
}

// TestCancelledStatePersists cancels a running session, restarts, and
// expects the cancelled state (with its diagnostic) to survive.
func TestCancelledStatePersists(t *testing.T) {
	dir := t.TempDir()
	m1 := NewManager(1)
	st1 := openStore(t, dir)
	if err := m1.Restore(st1); err != nil {
		t.Fatal(err)
	}
	s := startSlowSession(t, m1, slowSessionJobs)
	waitForProgress(t, s)
	if err := m1.Cancel(s.ID()); err != nil {
		t.Fatal(err)
	}
	if got := s.Status().State; got != StateCancelled {
		t.Fatalf("state after cancel = %s", got)
	}

	st1.Close()
	m2 := NewManager(1)
	if err := m2.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
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
