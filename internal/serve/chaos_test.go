package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/faultfs"
	"repro/internal/store"
)

// Chaos tests for the serving layer: disk faults flipping the service into
// degraded read-only mode and back, panic isolation in the session and
// auto-refit workers, admission control, and online compaction under
// traffic. The store-level fault matrix lives in internal/store; here the
// subject is the manager's behavior on top of a faulty store.

// openInjectedStore opens a store in dir with all I/O routed through a
// fresh injector. The caller owns Close (restart tests need the flock
// released mid-test).
func openInjectedStore(t *testing.T, dir string, opts store.Options) (*store.Log, *faultfs.Injector) {
	t.Helper()
	inj := faultfs.Wrap(nil)
	opts.FS = inj
	st, err := store.OpenOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, inj
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// retryAfterOf digs the Retry-After hint out of an error, or 0.
func retryAfterOf(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.retryAfter
	}
	return 0
}

// TestDegradedFlipServesReadOnlyAndRecovers is the headline robustness
// guarantee: a persistent WAL append failure flips the live service into
// degraded read-only mode — mutating endpoints 503 with Retry-After and
// the stable "error" body, an in-flight session cancelled meanwhile stops
// in memory flagged unpersisted — and once the disk heals, the probe
// recovers the store, re-persists the missed cancel, and a restart sees
// all of it.
func TestDegradedFlipServesReadOnlyAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st, inj := openInjectedStore(t, dir, store.Options{})
	m := NewManager(2)
	m.SetProbeInterval(5 * time.Millisecond)
	if err := m.Restore(st); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	// One session completes while the disk is healthy.
	s1, err := m.Create("healthy", testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.SubmitBag(BagRequest{App: "shapes", Jobs: 8, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s1); err != nil {
		t.Fatal(err)
	}
	s1.Wait()

	// A second session is mid-run when every WAL fsync starts failing.
	s2 := startSlowSession(t, m, slowSessionJobs)
	waitForProgress(t, s2)
	inj.Script(faultfs.Rule{Op: faultfs.OpSync, Path: "wal"})

	// The next mutating call trips the guard: 503, Retry-After, ErrDegraded.
	_, err = m.Create("doomed", testConfig(3))
	if err == nil {
		t.Fatal("create succeeded with a failing WAL")
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("create error = %v, want ErrDegraded", err)
	}
	if code := httpCode(err); code != http.StatusServiceUnavailable {
		t.Fatalf("create error code = %d, want 503", code)
	}
	if retryAfterOf(err) <= 0 {
		t.Fatal("degraded error carries no Retry-After hint")
	}

	// The in-flight session is cancelled while degraded: it stops in
	// memory, flagged unpersisted, since its stop point could not be
	// logged. (A run that finishes while degraded needs no record: its
	// inputs were durable before it started.)
	if err := m.Cancel(s2.ID()); err != nil {
		t.Fatal(err)
	}
	status := s2.Status()
	if status.State != StateCancelled {
		t.Fatalf("in-flight session ended %s (%s), want cancelled", status.State, status.Error)
	}
	if !status.Unpersisted {
		t.Fatal("session cancelled while degraded is not flagged unpersisted")
	}
	want := viewOf(t, s2)

	// Over HTTP: stable "error" body, Retry-After header, degraded health.
	body, _ := json.Marshal(createRequest{Config: testConfig(4)})
	resp, err := http.Post(srv.URL+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var errBody map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /api/sessions while degraded = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response has no Retry-After header")
	}
	if errBody["error"] == "" {
		t.Fatalf("503 body %v lacks the stable error key", errBody)
	}
	stats, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var statsBody struct {
		Health Health `json:"health"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&statsBody); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if !statsBody.Health.Degraded {
		t.Fatal("stats health does not report degraded")
	}

	// Reads still serve while degraded.
	if resp, err := http.Get(srv.URL + "/api/sessions"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/sessions while degraded: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// Heal the disk: the probe recovers, re-persists via compaction, and
	// clears both the degraded flag and the unpersisted markers.
	inj.Clear()
	waitUntil(t, "degraded mode to clear", func() bool { return !m.Health().Degraded })
	waitUntil(t, "unpersisted flag to clear", func() bool { return !s2.Status().Unpersisted })
	s5, err := m.Create("after-recovery", testConfig(5))
	if err != nil {
		t.Fatalf("create after recovery: %v", err)
	}

	// Restart: the cancel made while degraded is fully durable.
	m.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	m2 := NewManager(2)
	if err := m2.Restore(st2); err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rs, err := m2.Get(s2.ID())
	if err != nil {
		t.Fatalf("session %s lost across restart: %v", s2.ID(), err)
	}
	if got := rs.Status(); got.State != StateCancelled || got.Unpersisted {
		t.Fatalf("restored session = %s unpersisted=%v, want cancelled/false", got.State, got.Unpersisted)
	}
	// The live view was taken while flagged; the flag is the one expected
	// difference, and viewOf would otherwise compare it.
	want.status = strings.Replace(want.status, `,"unpersisted":true`, "", 1)
	requireView(t, "session cancelled while degraded", want, viewOf(t, rs))
	for _, id := range []string{s1.ID(), s5.ID()} {
		if _, err := m2.Get(id); err != nil {
			t.Fatalf("session %s lost across restart: %v", id, err)
		}
	}
}

// TestRunPanicBecomesFailedSession injects a panic into the session worker
// and checks isolation: the session fails with the panic and stack as its
// diagnostic, the worker slot is freed, and the process (manager) keeps
// serving.
func TestRunPanicBecomesFailedSession(t *testing.T) {
	m := NewManager(1)
	m.runHook = func(ctx context.Context, svc *batch.Service) (batch.Report, error) {
		panic("injected worker panic")
	}
	s, err := m.Create("doomed", testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	status := s.Status()
	if status.State != StateFailed {
		t.Fatalf("state = %s, want failed", status.State)
	}
	if !strings.Contains(status.Error, "injected worker panic") {
		t.Fatalf("diagnostic %q does not name the panic", status.Error)
	}
	if !strings.Contains(status.Error, "runSession") && !strings.Contains(status.Error, "goroutine") {
		t.Fatalf("diagnostic %q carries no stack", status.Error)
	}

	// The slot is free and the manager still serves: a clean session runs.
	m.runHook = nil
	s2, err := m.Create("survivor", testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s2); err != nil {
		t.Fatal(err)
	}
	s2.Wait()
	if got := s2.Status().State; got != StateDone {
		t.Fatalf("post-panic session = %s, want done", got)
	}
}

// TestRunPanicPersistsFailure runs the panic through a stored manager. The
// log keeps inputs only, so a restart whose worker panics the same way
// reproduces the same diagnosed failure from them — and one whose worker
// runs clean recovers the session as done.
func TestRunPanicPersistsFailure(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := NewManager(1)
	if err := m.Restore(st); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.runHook = func(ctx context.Context, svc *batch.Service) (batch.Report, error) {
		panic("durable panic")
	}
	s, err := m.Create("doomed", testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	m.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	m2 := NewManager(1)
	m2.runHook = m.runHook
	if err := m2.Restore(st2); err != nil {
		t.Fatal(err)
	}
	rs, err := m2.Get(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	got := rs.Status()
	if got.State != StateFailed || !strings.Contains(got.Error, "durable panic") {
		t.Fatalf("restored state = %s (%q), want the diagnosed failure", got.State, got.Error)
	}
	m2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	m3 := NewManager(1)
	if err := m3.Restore(openStore(t, dir)); err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	rs, err = m3.Get(s.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Status(); got.State != StateDone {
		t.Fatalf("restored without the panicking worker: %s (%q), want done", got.State, got.Error)
	}
}

// TestAutoRefitPanicIsolated panics the background refit worker and checks
// the manager survives with the in-flight marker cleared, so the entry can
// refit again.
func TestAutoRefitPanicIsolated(t *testing.T) {
	m := NewManager(1)
	m.refitHook = func(name string) error { panic("refit panic: " + name) }
	m.startAutoRefit("zone-model")
	waitUntil(t, "refit in-flight marker to clear", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return !m.refitInFlight["zone-model"]
	})
	// A second launch must be admitted (the marker really cleared, not
	// leaked), and isolate its panic the same way.
	m.startAutoRefit("zone-model")
	waitUntil(t, "second refit to clear", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return !m.refitInFlight["zone-model"]
	})
}

// TestAdmissionMaxSessions bounds live sessions: creates beyond the cap get
// 429 with Retry-After, and deleting one readmits.
func TestAdmissionMaxSessions(t *testing.T) {
	m := NewManager(2)
	m.SetMaxSessions(2)
	s1, err := m.Create("a", testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("b", testConfig(2)); err != nil {
		t.Fatal(err)
	}
	_, err = m.Create("c", testConfig(3))
	if err == nil {
		t.Fatal("third create admitted past maxSessions=2")
	}
	if code := httpCode(err); code != http.StatusTooManyRequests {
		t.Fatalf("over-limit create = %d, want 429", code)
	}
	if retryAfterOf(err) <= 0 {
		t.Fatal("429 carries no Retry-After hint")
	}
	if err := m.Delete(s1.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("c", testConfig(3)); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestAdmissionRunQueue bounds the run queue: with a one-worker pool and
// queueDepth 1, a third concurrent run gets 429, and finishing runs free
// the admission slots.
func TestAdmissionRunQueue(t *testing.T) {
	m := NewManager(1)
	m.SetQueueDepth(1)
	s1 := startSlowSession(t, m, slowSessionJobs) // occupies the worker
	waitForProgress(t, s1)

	mkParked := func(name string, seed uint64) *Session {
		t.Helper()
		s, err := m.Create(name, testConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s2 := mkParked("queued", 2)
	if err := m.Run(s2); err != nil { // fills the queue
		t.Fatal(err)
	}
	s3 := mkParked("rejected", 3)
	err := m.Run(s3)
	if err == nil {
		t.Fatal("run admitted past the queue bound")
	}
	if code := httpCode(err); code != http.StatusTooManyRequests {
		t.Fatalf("over-queue run = %d, want 429", code)
	}
	if retryAfterOf(err) <= 0 {
		t.Fatal("429 carries no Retry-After hint")
	}

	// Free the worker: the queued run completes, admission slots drain, and
	// the rejected session is admitted on retry.
	if err := m.Cancel(s1.ID()); err != nil {
		t.Fatal(err)
	}
	s2.Wait()
	waitUntil(t, "admission slots to drain", func() bool { return m.Run(s3) == nil })
	s3.Wait()
	if got := s3.Status().State; got != StateDone {
		t.Fatalf("retried session = %s, want done", got)
	}
}

// TestCreateCtxAbandoned maps an abandoned request context to 408 before
// the expensive build work runs.
func TestCreateCtxAbandoned(t *testing.T) {
	m := NewManager(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.CreateCtx(ctx, "gone", testConfig(1))
	if err == nil {
		t.Fatal("create succeeded on a cancelled context")
	}
	if code := httpCode(err); code != http.StatusRequestTimeout {
		t.Fatalf("abandoned create = %d, want 408", code)
	}
}

// TestSSETerminalFrameOnPanic streams a session that panics mid-run: the
// stream must end with a terminal failed state frame carrying the
// diagnostic, and the subscription must be torn down (no leak).
func TestSSETerminalFrameOnPanic(t *testing.T) {
	mgr := NewManager(1)
	mgr.runHook = func(ctx context.Context, svc *batch.Service) (batch.Report, error) {
		time.Sleep(50 * time.Millisecond)
		panic("mid-run panic")
	}
	srv := httptest.NewServer(NewAPI(mgr).Handler())
	defer srv.Close()

	s, err := mgr.Create("sse-panic", slowConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 100, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/api/sessions/" + s.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := mgr.Run(s); err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), 1000)
	if len(events) == 0 {
		t.Fatal("no events before the stream closed")
	}
	last := events[len(events)-1]
	if last.name != "state" {
		t.Fatalf("last event = %q, want state", last.name)
	}
	var final SessionStatus
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "mid-run panic") {
		t.Fatalf("terminal frame = %s (%q), want the diagnosed failure", final.State, final.Error)
	}
	waitUntil(t, "subscriptions to tear down", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.subs) == 0
	})
}

// TestSSETerminalFrameWhileDegraded streams a session cancelled while the
// store is degraded: the client still gets the terminal frame (with the
// unpersisted marker), and the stream closes.
func TestSSETerminalFrameWhileDegraded(t *testing.T) {
	dir := t.TempDir()
	st, inj := openInjectedStore(t, dir, store.Options{})
	t.Cleanup(func() { st.Close() })
	m := NewManager(1)
	m.SetProbeInterval(time.Hour) // keep the probe out of this test
	if err := m.Restore(st); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewAPI(m).Handler())
	defer srv.Close()

	s := startSlowSession(t, m, slowSessionJobs)
	resp, err := http.Get(srv.URL + "/api/sessions/" + s.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitForProgress(t, s)
	inj.Script(faultfs.Rule{Op: faultfs.OpSync, Path: "wal"})
	// Trip the guard so the manager is degraded before the run finishes.
	if _, err := m.Create("tripwire", testConfig(9)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("tripwire create = %v, want ErrDegraded", err)
	}
	if err := m.Cancel(s.ID()); err != nil {
		t.Fatal(err)
	}

	events := readSSE(t, bufio.NewReader(resp.Body), 100_000)
	if len(events) == 0 {
		t.Fatal("no events before the stream closed")
	}
	var final SessionStatus
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("terminal frame = %s (%q), want cancelled", final.State, final.Error)
	}
	if !final.Unpersisted {
		t.Fatal("terminal frame while degraded lacks the unpersisted marker")
	}
}

// TestOnlineCompactionWhileServing runs sessions through a store with tiny
// segment and compaction thresholds: background compaction must fire while
// traffic flows, and a restart must still see every session.
func TestOnlineCompactionWhileServing(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenOptions(dir, store.Options{
		SegmentMaxRecords: 4,
		CompactAtRecords:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(2)
	if err := m.Restore(st); err != nil {
		t.Fatal(err)
	}
	base := st.Stats().Compactions // Restore's boot compaction

	var ids []string
	for i := 0; i < 6; i++ {
		s, err := m.Create("", testConfig(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(s); err != nil {
			t.Fatal(err)
		}
		s.Wait()
		ids = append(ids, s.ID())
	}
	waitUntil(t, "online compaction to fire", func() bool { return st.Stats().Compactions > base })

	m.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	m2 := NewManager(2)
	if err := m2.Restore(st2); err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, id := range ids {
		s, err := m2.Get(id)
		if err != nil {
			t.Fatalf("session %s lost across restart: %v", id, err)
		}
		if got := s.Status().State; got != StateDone {
			t.Fatalf("session %s restored as %s, want done", id, got)
		}
		if _, err := s.Report(); err != nil {
			t.Fatalf("session %s report: %v", id, err)
		}
	}
}
