package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/store"
)

// Process-level chaos tests: a real shard subprocess under the supervisor,
// killed with SIGKILL mid-service, must come back via WAL replay with
// byte-identical reports while the router degrades to partial answers in
// between. The shard subprocess is this very test binary re-exec'd —
// TestMain switches into shard-server mode when SERVE_SHARD_SERVER is set.

func TestMain(m *testing.M) {
	if addr := os.Getenv("SERVE_SHARD_SERVER"); addr != "" {
		runShardProcess(addr, os.Getenv("SERVE_SHARD_DIR"))
		return
	}
	os.Exit(m.Run())
}

// runShardProcess is the subprocess body: a shard Manager behind
// ShardHandler on the socket ShardListener hands it, warm-started from
// dir's WAL when set, shut down gracefully on SIGTERM — in-flight runs
// drain before it exits. It mirrors `batchsvc -shard-server` without
// needing a second binary on disk. It serves once its stdin reaches EOF,
// at once for the /dev/null an ungated spawn gets (see shardGate).
func runShardProcess(addr, dir string) {
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "shard process: %v\n", err)
		os.Exit(1)
	}
	m := NewShardManager(2)
	m.SetShardIndex(1)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			die(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			die(err)
		}
		if err := m.Restore(st); err != nil {
			die(err)
		}
	}
	ln, err := ShardListener(addr)
	if err != nil {
		die(err)
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
	srv := &http.Server{Handler: ShardHandler(m)}
	go srv.Serve(ln)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	m.Wait()
	m.Close()
	os.Exit(0)
}

// shardGate holds back the shard incarnations spawned while it is shut:
// each gets the read end of a pipe as its stdin, and serves only once
// release closes the write end. The supervisor's socket keeps every
// connection made meanwhile in its backlog, so a test sees a shard that is
// down without being refused. A nil gate never holds.
type shardGate struct {
	mu    sync.Mutex
	shut  bool
	pipes []*os.File
}

// close holds back every incarnation spawned from now until release.
func (g *shardGate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shut = true
}

// release lets every held incarnation serve; later ones serve at once.
func (g *shardGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shut = false
	for _, f := range g.pipes {
		f.Close()
	}
	g.pipes = nil
}

// hold gives cmd a pipe for stdin while the gate is shut.
func (g *shardGate) hold(cmd *exec.Cmd) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.shut {
		return
	}
	r, w, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	cmd.Stdin = r
	g.pipes = append(g.pipes, r, w)
}

// shardSpawn re-execs the test binary as a shard server with its WAL in
// dir, held back by gate while it is shut.
func shardSpawn(dir string, gate *shardGate) func(int, string) *exec.Cmd {
	return func(_ int, addr string) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"SERVE_SHARD_SERVER="+addr,
			"SERVE_SHARD_DIR="+dir,
		)
		cmd.Stderr = os.Stderr
		gate.hold(cmd)
		return cmd
	}
}

// superviseShard starts one supervised shard subprocess on a free loopback
// port (see shardSpawn) and returns its supervisor and address. The shard
// is killed at cleanup.
func superviseShard(t testing.TB, dir string, gate *shardGate, opts *SupervisorOptions) (*Supervisor, string) {
	t.Helper()
	sup := NewSupervisor([]string{"127.0.0.1:0"}, shardSpawn(dir, gate), opts)
	if err := sup.Spawn(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Kill)
	if err := sup.Ready(); err != nil {
		t.Fatal(err)
	}
	return sup, sup.Addrs()[0]
}

// TestShardProcessKillRestartWALReplay is the end-to-end chaos walk: kill
// -9 one shard subprocess mid-run and check, in order, that (1) the other
// shard keeps serving and reads go partial, (2) while a gate keeps the
// shard from serving, its operations 503 with Retry-After once the per-op
// deadline passes and the breaker opens, (3) once released, the
// supervisor's next incarnation serves and WAL replay brings every one of
// its sessions back byte-identically — the run the kill interrupted
// included, re-run from its inputs to the report an uncrashed run gives —
// and (4) a model_ref session homed there comes back from the parameters
// its own log holds, while new creates keep pinning the control plane's
// model.
func TestShardProcessKillRestartWALReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	root := t.TempDir()
	gate := &shardGate{}
	t.Cleanup(gate.release)
	sup, addr := superviseShard(t, store.ShardDir(root, 1), gate, &SupervisorOptions{
		PingInterval:   50 * time.Millisecond,
		PingTimeout:    time.Second,
		PingFailures:   3,
		RestartBackoff: 300 * time.Millisecond,
		ReadyTimeout:   15 * time.Second,
	})

	r, err := NewRouterTopology([]string{"", addr}, 2, &RemoteOptions{
		OpTimeout:        2 * time.Second,
		Retries:          -1,
		RetryBase:        5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st0, err := store.Open(store.ShardDir(root, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore([]Store{st0, nil}); err != nil {
		t.Fatal(err)
	}

	// A model registered pre-kill, and a session pinned to it on the remote
	// shard: the restarted shard must rebuild that session from its log.
	if _, err := r.RegisterModel(ModelCreateRequest{
		Name: "east", VMType: "n1-highcpu-16", Zone: "us-east1-b",
		Model: &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
	}); err != nil {
		t.Fatal(err)
	}
	var pinned *Session
	var pinnedReport string
	for pinned == nil {
		s, rep := runReport(t, r, refConfig(7, "east@latest"))
		if placement.Shard(s.ID(), 2) == 1 {
			pinned, pinnedReport = s, rep
		}
	}

	const n = 6
	before := runFleet(t, r, n)
	var remoteIDs, localIDs []string
	for id := range before {
		if placement.Shard(id, 2) == 1 {
			remoteIDs = append(remoteIDs, id)
		} else {
			localIDs = append(localIDs, id)
		}
	}
	if len(remoteIDs) == 0 || len(localIDs) == 0 {
		t.Fatalf("placement split local=%d remote=%d; chaos needs both", len(localIDs), len(remoteIDs))
	}

	// A long run on the remote shard is mid-simulation when the kill lands.
	h := NewAPI(r).Handler()
	slowBag := BagRequest{App: "shapes", Jobs: slowSessionJobs, Jitter: 0.02, Seed: 3}
	var slow *Session
	for slow == nil {
		s, err := r.Create("slow", slowConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if placement.Shard(s.ID(), 2) == 1 {
			slow = s
		}
	}
	if rec := call(t, h, "POST", "/api/sessions/"+slow.ID()+"/bags", slowBag); rec.Code != http.StatusAccepted {
		t.Fatalf("bags: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, h, "POST", "/api/sessions/"+slow.ID()+"/run", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	waitUntil(t, "the remote run to publish progress", func() bool {
		st := statusOf(t, h, slow.ID())
		if st.State.terminal() {
			t.Fatalf("remote run ended %s before the kill; it must outlast it", st.State)
		}
		return st.Progress != nil
	})

	// The supervisor's socket holds requests for a restarting shard until
	// its next incarnation serves; the gate keeps every incarnation from
	// serving until the down-shard checks are done.
	gate.close()
	pid := sup.Pid(0)
	if pid <= 0 {
		t.Fatalf("supervisor has no pid for the shard (got %d)", pid)
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	// Survivors keep serving; the dead shard's reads wait out the per-op
	// deadline and 503 with Retry-After until the breaker opens and fails
	// them fast.
	if _, err := r.Get(localIDs[0]); err != nil {
		t.Fatalf("local session unreadable while remote shard dead: %v", err)
	}
	rb := r.Remote(1)
	sawUnavailable := false
	waitUntil(t, "breaker to open after the kill", func() bool {
		_, err := statusOn(rb, remoteIDs[0])
		if err != nil && httpCode(err) == http.StatusServiceUnavailable && retryAfterOf(err) > 0 {
			sawUnavailable = true
		}
		return rb.BreakerState() == breakerOpen
	})
	if !sawUnavailable {
		t.Fatal("dead-shard reads never returned 503 + Retry-After")
	}
	if _, errs := r.ListPartial(); len(errs) != 1 || errs[0].Shard != 1 {
		t.Fatalf("list while shard dead: errors = %+v, want exactly shard 1", errs)
	}

	// The supervisor notices and restarts; released, the shard comes back
	// ready.
	waitUntil(t, "supervisor to restart the shard", func() bool {
		return sup.Restarts(0) >= 1
	})
	gate.release()
	waitUntil(t, "restarted shard to serve reads again", func() bool {
		_, err := statusOn(rb, remoteIDs[0])
		return err == nil
	})
	if got := rb.BreakerState(); got != breakerClosed {
		t.Fatalf("breaker = %s after recovery, want closed", got)
	}

	// WAL replay: every remote-homed report is byte-identical to pre-kill.
	for _, id := range remoteIDs {
		if raw := reportOf(t, h, id); raw != before[id] {
			t.Errorf("session %s: post-replay report differs:\n  %s\nvs\n  %s", id, raw, before[id])
		}
	}
	// The interrupted run came back done, with an uncrashed run's report.
	if st := statusOf(t, h, slow.ID()); st.State != StateDone {
		t.Fatalf("interrupted run restored as %s (%s), want done", st.State, st.Error)
	}
	if raw, want := reportOf(t, h, slow.ID()), uncrashedView(t, "slow", slowConfig(1), slowBag).report; raw != want {
		t.Errorf("interrupted run's report differs from an uncrashed run's:\n  %s\nvs\n  %s", raw, want)
	}

	// The pinned session came back from its own log's parameters: still
	// pinned to east@v1, with its pre-kill report.
	if got := statusOf(t, h, pinned.ID()).Config.ModelRef; got != "east@v1" {
		t.Fatalf("restored remote session pinned %q, want east@v1", got)
	}
	if raw := reportOf(t, h, pinned.ID()); raw != pinnedReport {
		t.Errorf("restored model_ref session's report differs:\n  %s\nvs\n  %s", raw, pinnedReport)
	}

	// The restarted shard accepts new work, with ids minted past everything
	// it replayed, pinned to the control plane's model.
	cfg := testConfig(9)
	cfg.Model = nil
	cfg.ModelRef = "east@latest"
	created := false
	for i := 0; i < 8 && !created; i++ {
		s, err := r.Create("post-restart", cfg)
		if err != nil {
			t.Fatalf("create after restart: %v", err)
		}
		if _, ok := before[s.ID()]; ok {
			t.Fatalf("post-restart create re-minted existing id %s", s.ID())
		}
		if placement.Shard(s.ID(), 2) == 1 {
			created = true
			if got := s.Status().Config.ModelRef; got != "east@v1" {
				t.Fatalf("post-restart remote session pinned %q, want east@v1", got)
			}
		}
	}
	if !created {
		t.Fatal("no post-restart session homed on the restarted shard")
	}

	// Graceful stop reaps the subprocess: no zombie, no survivor.
	pid2 := sup.Pid(0)
	r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sup.Stop(ctx)
	waitUntil(t, "shard process to be gone after Stop", func() bool {
		return syscall.Kill(pid2, 0) != nil
	})
}

// TestRemoteRunsDrainAtShutdown pins the shutdown order with a remote
// shard: Router.Wait waits for in-process shards only, so a remote-homed
// run is still going when it returns; Supervisor.Stop's SIGTERM then lets
// the shard process drain it, and a respawned shard serves it as done.
func TestRemoteRunsDrainAtShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	dir := store.ShardDir(t.TempDir(), 1)
	opts := &SupervisorOptions{PingInterval: 50 * time.Millisecond, ReadyTimeout: 15 * time.Second}
	sup, addr := superviseShard(t, dir, nil, opts)
	r, err := NewRouterTopology([]string{"", addr}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var s *Session
	for s == nil {
		c, err := r.Create("drain", slowConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if placement.Shard(c.ID(), 2) == 1 {
			s = c
		}
	}
	h := NewAPI(r).Handler()
	p := "/api/sessions/" + s.ID()
	if rec := call(t, h, "POST", p+"/bags", BagRequest{App: "shapes", Jobs: slowSessionJobs / 4, Jitter: 0.02, Seed: 3}); rec.Code != http.StatusAccepted {
		t.Fatalf("bags: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, h, "POST", p+"/run", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d %s", rec.Code, rec.Body)
	}
	waitUntil(t, "remote run to start", func() bool { return statusOf(t, h, s.ID()).State == StateRunning })
	r.Wait()
	if got := statusOf(t, h, s.ID()).State; got != StateRunning {
		t.Fatalf("remote session %s is %s when Router.Wait returns, want still running", s.ID(), got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sup.Stop(ctx)

	// Stop closed the socket, so a new supervisor can bind the same address.
	sup = NewSupervisor([]string{addr}, shardSpawn(dir, nil), opts)
	if err := sup.Spawn(); err != nil {
		t.Fatal(err)
	}
	defer sup.Kill()
	if err := sup.Ready(); err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	waitUntil(t, "respawned shard to serve the session", func() bool {
		rec := call(t, h, "GET", p, nil)
		return rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &st) == nil
	})
	if st.State != StateDone {
		t.Fatalf("respawned shard serves %s as %s (%s), want done", s.ID(), st.State, st.Error)
	}
}

// TestShardProcessTracePropagation proves a trace crosses the process
// boundary: a traced create, bag submission, run, report read, events
// read and delete routed to a real shard subprocess must come back from
// Router.Trace as one merged timeline holding this process's
// router/remote spans and the subprocess's shard/wal/request spans — the
// X-Trace-Id header is the only thing connecting the two rings.
func TestShardProcessTracePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	// The shard gets a WAL so the trace includes its wal.persist spans.
	_, addr := superviseShard(t, store.ShardDir(t.TempDir(), 1), nil, &SupervisorOptions{
		PingInterval: 50 * time.Millisecond,
		ReadyTimeout: 15 * time.Second,
	})

	r, err := NewRouterTopology([]string{"", addr}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Mint ids until one places on the remote shard; each create carries its
	// own trace so only the remote-homed one is inspected.
	var tid, sid string
	for i := 0; i < 8 && sid == ""; i++ {
		ctx := obs.WithTrace(context.Background(), obs.NewTraceID())
		s, err := r.CreateCtx(ctx, "traced", testConfig(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if placement.Shard(s.ID(), 2) == 1 {
			tid, sid = obs.TraceID(ctx), s.ID()
		}
	}
	if sid == "" {
		t.Fatal("no session placed on the remote shard")
	}

	// The bag submission, run, report read, events read and delete go
	// through the API under the same trace. Each is forwarded to the shard
	// as one call: the router records one client-side remote span for it,
	// and the forwarded X-Trace-Id puts the shard's request span in the
	// trace.
	api := httptest.NewServer(NewAPI(r).Handler())
	defer api.Close()
	base := "/api/sessions/" + sid
	traced := func(method, path string, body any, wantCode int) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(method, api.URL+path, &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceHeader, tid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s: %d, want %d", method, path, resp.StatusCode, wantCode)
		}
	}
	traced(http.MethodPost, base+"/bags", BagRequest{App: "shapes", Jobs: 5, Jitter: 0.01, Seed: 1}, http.StatusAccepted)
	traced(http.MethodPost, base+"/run", nil, http.StatusAccepted)
	waitDone(t, NewAPI(r).Handler(), sid) // untraced: its polls get traces of their own
	traced(http.MethodGet, base+"/report", nil, http.StatusOK)
	traced(http.MethodGet, base+"/events", nil, http.StatusOK)
	traced(http.MethodDelete, base, nil, http.StatusOK)

	// The merged trace must hold spans from both processes: the subprocess
	// runs its spans through its own ring, fetched over the shard protocol.
	calls := []struct {
		method, path string
		code         int
	}{
		{http.MethodPost, base + "/bags", http.StatusAccepted},
		{http.MethodPost, base + "/run", http.StatusAccepted},
		{http.MethodGet, base + "/report", http.StatusOK},
		{http.MethodGet, base + "/events", http.StatusOK},
		{http.MethodDelete, base, http.StatusOK},
	}
	var spans []obs.Span
	remoteSpans := make([]int, len(calls))
	requests := make([]int, len(calls))
	waitUntil(t, "merged trace to hold remote shard spans", func() bool {
		spans = r.Trace(tid)
		shardSpans := 0
		clear(remoteSpans)
		clear(requests)
		for _, sp := range spans {
			if sp.Component == "shard" && sp.Shard == 1 {
				shardSpans++
			}
			for i, c := range calls {
				switch {
				case sp.Component == "remote" && sp.Name == c.method+" "+c.path:
					remoteSpans[i]++
				case sp.Component == "api" && sp.Detail == fmt.Sprintf("%s %s -> %d", c.method, c.path, c.code):
					requests[i]++
				}
			}
		}
		// Each request shows up twice: at this process's edge and as the
		// shard process's own request span.
		for _, n := range requests {
			if n != 2 {
				return false
			}
		}
		return shardSpans > 0
	})
	for i, c := range calls {
		if remoteSpans[i] != 1 {
			t.Errorf("trace holds %d client-side spans for %s %s, want 1", remoteSpans[i], c.method, c.path)
		}
	}
	components := map[string]bool{}
	for _, sp := range spans {
		components[sp.Component] = true
		if sp.Session != "" && sp.Session != sid {
			t.Errorf("span for foreign session %s in trace %s", sp.Session, tid)
		}
	}
	for _, want := range []string{"router", "remote", "shard", "wal"} {
		if !components[want] {
			t.Errorf("merged trace missing %q component; have %v", want, sorted(components))
		}
	}
	if !sort.SliceIsSorted(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) }) {
		t.Error("merged trace not sorted by start time")
	}
}

// TestSupervisorRestartsUnresponsiveShard covers the other death mode: a
// process that is alive but not answering pings (SIGSTOP) gets killed and
// replaced by the supervisor.
func TestSupervisorRestartsUnresponsiveShard(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	sup, addr := superviseShard(t, "", nil, &SupervisorOptions{
		PingInterval:   50 * time.Millisecond,
		PingTimeout:    250 * time.Millisecond,
		PingFailures:   3,
		RestartBackoff: 100 * time.Millisecond,
		ReadyTimeout:   15 * time.Second,
	})

	pid := sup.Pid(0)
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "supervisor to replace the frozen shard", func() bool {
		return sup.Restarts(0) >= 1 && sup.Pid(0) != pid
	})
	// The frozen incarnation was SIGKILLed, not leaked; the replacement
	// answers pings.
	waitUntil(t, "frozen incarnation to be reaped", func() bool {
		return syscall.Kill(pid, 0) != nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := sup.ping(ctx, addr); err != nil {
		t.Fatalf("replacement shard does not answer pings: %v", err)
	}
}

// TestRequestDuringRespawnWaits sends a status read and a bag submission
// for a remote-homed session after its shard process was killed and before
// the next incarnation serves. The supervisor's socket keeps both in its
// backlog, so both succeed once that incarnation serves: no 503, and the
// breaker never sees a failure.
func TestRequestDuringRespawnWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	gate := &shardGate{}
	t.Cleanup(gate.release)
	sup, addr := superviseShard(t, store.ShardDir(t.TempDir(), 1), gate, &SupervisorOptions{
		PingInterval:   50 * time.Millisecond,
		RestartBackoff: 50 * time.Millisecond,
		ReadyTimeout:   15 * time.Second,
	})
	r, err := NewRouterTopology([]string{"", addr}, 2, &RemoteOptions{
		OpTimeout:        15 * time.Second,
		BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var id string
	for id == "" {
		s, err := r.Create("respawn", testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if placement.Shard(s.ID(), 2) == 1 {
			id = s.ID()
		}
	}
	h := NewAPI(r).Handler()
	statusOf(t, h, id) // leaves an idle connection to the incarnation about to die

	gate.close()
	pid := sup.Pid(0)
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the killed incarnation to be reaped", func() bool { return sup.Restarts(0) >= 1 })

	type answer struct {
		what string
		code int
		body string
	}
	answers := make(chan answer, 2)
	send := func(what, method, path, body string) {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			answers <- answer{what, rec.Code, rec.Body.String()}
		}()
	}
	p := "/api/sessions/" + id
	send("status", http.MethodGet, p, "")
	send("bags", http.MethodPost, p+"/bags", `{"app":"shapes","jobs":7,"seed":1}`)

	waitUntil(t, "the next incarnation to spawn", func() bool {
		n := sup.Pid(0)
		return n != 0 && n != pid
	})
	select {
	case a := <-answers:
		t.Fatalf("%s answered %d before any incarnation served: %s", a.what, a.code, a.body)
	case <-time.After(100 * time.Millisecond):
	}
	gate.release()
	for range 2 {
		select {
		case a := <-answers:
			want := http.StatusOK
			if a.what == "bags" {
				want = http.StatusAccepted
			}
			if a.code != want {
				t.Fatalf("%s during the respawn answered %d, want %d: %s", a.what, a.code, want, a.body)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("a request sent during the respawn never answered")
		}
	}
	if got := r.Remote(1).BreakerState(); got != breakerClosed {
		t.Fatalf("breaker = %s after the respawn, want closed", got)
	}
	if st := statusOf(t, h, id); st.JobsSubmitted != 7 {
		t.Fatalf("the restarted shard holds %d jobs for %s, want the 7 submitted during the respawn", st.JobsSubmitted, id)
	}
}

// TestTimedOutMutationNotAppliedAfterRespawn sends a bag submission for a
// remote-homed session while its shard process restarts and holds the next
// incarnation back past the router's per-op deadline. The router answers
// 503 + Retry-After; the request still sits in the supervisor's socket
// backlog, and the incarnation that accepts it must refuse it as past its
// deadline, so the session shows no jobs and the client's retry is the
// only submission applied.
func TestTimedOutMutationNotAppliedAfterRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	gate := &shardGate{}
	t.Cleanup(gate.release)
	sup, addr := superviseShard(t, store.ShardDir(t.TempDir(), 1), gate, &SupervisorOptions{
		PingInterval:   50 * time.Millisecond,
		RestartBackoff: 50 * time.Millisecond,
		ReadyTimeout:   15 * time.Second,
	})
	r, err := NewRouterTopology([]string{"", addr}, 2, &RemoteOptions{
		OpTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var id string
	for id == "" {
		s, err := r.Create("stale", testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		if placement.Shard(s.ID(), 2) == 1 {
			id = s.ID()
		}
	}
	h := NewAPI(r).Handler()
	p := "/api/sessions/" + id
	bag := BagRequest{App: "shapes", Jobs: 7, Seed: 1}

	gate.close()
	pid := sup.Pid(0)
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the next incarnation to spawn", func() bool {
		n := sup.Pid(0)
		return n != 0 && n != pid
	})
	rec := call(t, h, http.MethodPost, p+"/bags", bag)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("bag past the deadline answered %d (Retry-After %q), want 503 with Retry-After: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}

	gate.release()
	waitUntil(t, "the next incarnation to serve", func() bool {
		return call(t, h, http.MethodGet, p, nil).Code == http.StatusOK
	})
	// The timed-out bag was accepted from the backlog before the status
	// read; give its handler time to run, and check it applied nothing.
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		if st := statusOf(t, h, id); st.JobsSubmitted != 0 {
			t.Fatalf("the restarted shard applied the bag the router answered 503: %d jobs submitted", st.JobsSubmitted)
		}
	}
	if rec := call(t, h, http.MethodPost, p+"/bags", bag); rec.Code != http.StatusAccepted {
		t.Fatalf("the client's retry answered %d, want 202: %s", rec.Code, rec.Body)
	}
	if st := statusOf(t, h, id); st.JobsSubmitted != 7 {
		t.Fatalf("after the retry the session holds %d jobs, want 7", st.JobsSubmitted)
	}
}

// TestSupervisorSpawnReturnsBeforeReady holds a shard back from serving
// (a shut gate): Spawn returns with the process started, a connection
// made meanwhile waits in the socket's backlog, Ready returns only once
// the gate opens, and the waiting connection is then served.
func TestSupervisorSpawnReturnsBeforeReady(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	gate := &shardGate{}
	gate.close()
	sup := NewSupervisor([]string{"127.0.0.1:0"}, shardSpawn("", gate), &SupervisorOptions{ReadyTimeout: 15 * time.Second})
	if err := sup.Spawn(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Kill)
	if sup.Pid(0) == 0 {
		t.Fatal("Spawn returned without starting the shard")
	}
	ready := make(chan error, 1)
	go func() { ready <- sup.Ready() }()
	conn, err := net.Dial("tcp", sup.Addrs()[0])
	if err != nil {
		t.Fatalf("dialing the held shard: %v", err)
	}
	defer conn.Close()
	select {
	case err := <-ready:
		t.Fatalf("Ready returned (%v) while the shard was held back", err)
	case <-time.After(200 * time.Millisecond):
	}
	gate.release()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatalf("Ready: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Ready did not return within 15s of the shard's release")
	}
	conn.SetDeadline(time.Now().Add(15 * time.Second))
	req, err := http.NewRequest(http.MethodGet, "http://"+sup.Addrs()[0]+"/shard/ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		t.Fatalf("reading the ping sent while the shard was held: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping sent while the shard was held: %s", resp.Status)
	}
}

// TestSupervisorStartFailsFastOnEarlyExit starts a shard that exits before
// it serves (its data dir cannot be made). Spawn returns once the process
// is started; the readiness ping waits in the socket's backlog, where
// nothing will answer it, so Ready must end that wait when the process
// exits, not after PingTimeout or ReadyTimeout.
func TestSupervisorStartFailsFastOnEarlyExit(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor([]string{"127.0.0.1:0"}, shardSpawn(filepath.Join(file, "wal"), nil), &SupervisorOptions{
		PingTimeout:  10 * time.Second,
		ReadyTimeout: 10 * time.Second,
	})
	start := time.Now()
	if err := sup.Spawn(); err != nil {
		t.Fatalf("Spawn: %v, want the process started", err)
	}
	err := sup.Ready()
	elapsed := time.Since(start)
	if err == nil {
		sup.Kill()
		t.Fatal("Ready succeeded for a shard that cannot open its data dir")
	}
	if !strings.Contains(err.Error(), "exited before ready") {
		t.Fatalf("Ready: %v, want an exited-before-ready error", err)
	}
	if elapsed > time.Second {
		t.Fatalf("Spawn and Ready took %v to notice the exit, want under 1s", elapsed)
	}
	if sup.Pid(0) != 0 && syscall.Kill(sup.Pid(0), 0) == nil {
		t.Fatalf("shard pid %d still signalable after Ready failed", sup.Pid(0))
	}
}
