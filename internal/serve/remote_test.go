package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/faultnet"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/store"
)

// Remote-shard tests: a RemoteBackend over the shard protocol must be
// observationally identical to a local Manager slot — same ids, same
// byte-identical reports — while every cross-process failure mode
// (injected via faultnet) degrades to fast, partial, retryable answers
// instead of hangs or wrong results.

// startShard brings up one shard server (a Manager behind ShardHandler) on
// a loopback listener served by the loop batchsvc serves shards with.
func startShard(t *testing.T, parallelism int) (*Manager, *loopServer) {
	t.Helper()
	m := NewShardManager(parallelism)
	m.SetShardIndex(1)
	srv := newLoopServer(t, ShardHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

// fastRemoteOptions keeps failure paths quick under test: short op
// timeouts, millisecond backoff, and a breaker that trips after 3
// consecutive transport failures.
func fastRemoteOptions(client *http.Client) *RemoteOptions {
	return &RemoteOptions{
		Client:           client,
		OpTimeout:        2 * time.Second,
		Retries:          -1, // opt out per test; retry tests override
		RetryBase:        time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	}
}

// statusOn reads a session's status from a shard through rb: an
// idempotent read, retried like any other.
func statusOn(rb *RemoteBackend, id string) (SessionStatus, error) {
	var st SessionStatus
	err := rb.do(context.Background(), http.MethodGet, "/api/sessions/"+id, nil, &st)
	return st, err
}

// hostOf strips the scheme from a test server's URL, for faultnet's
// host-scoped partition rules.
func hostOf(url string) string {
	return strings.TrimPrefix(url, "http://")
}

// TestRemoteShardReportsByteIdentical is the tentpole equivalence gate
// across the process boundary: the same create sequence yields the same
// ids and byte-identical reports whether the second shard is an in-process
// Manager or a remote shard server.
func TestRemoteShardReportsByteIdentical(t *testing.T) {
	const n = 6
	baseline := runFleet(t, NewRouter(2, 2), n)

	_, srv := startShard(t, 2)
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mixed := runFleet(t, r, n)

	if len(mixed) != n {
		t.Fatalf("mixed topology ran %d sessions, want %d", len(mixed), n)
	}
	sawRemote := false
	for id, want := range baseline {
		if got := mixed[id]; got != want {
			t.Errorf("session %s: remote-shard report differs:\n  %s\nvs\n  %s", id, got, want)
		}
		if placement.Shard(id, 2) == 1 {
			sawRemote = true
		}
	}
	if !sawRemote {
		t.Fatal("no session homed on the remote shard; equivalence untested")
	}
	// The remote sessions really live in the shard server, not the router.
	if got := len(r.Shard(0).List()); got >= n {
		t.Fatalf("control shard holds %d sessions; remote shard got none", got)
	}
}

// TestRemoteRetriesIdempotentOnly checks the retry discipline: reads retry
// through transient transport faults; creates never do.
func TestRemoteRetriesIdempotentOnly(t *testing.T) {
	_, srv := startShard(t, 2)
	inj := faultnet.Wrap(&shardTransport{})
	opts := fastRemoteOptions(inj.Client())
	opts.Retries = 3
	rb := NewRemoteBackend(srv.URL, opts)
	defer rb.Close()

	s, err := rb.createSession(context.Background(), "s-001", "r", testConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Two transient faults on the status GET: attempts 1 and 2 fail, 3
	// succeeds — the caller never sees the fault.
	inj.Script(faultnet.Rule{Method: http.MethodGet, Path: "/api/sessions/", Count: 2})
	got, err := statusOn(rb, s.ID())
	if err != nil {
		t.Fatalf("idempotent read did not ride out transient faults: %v", err)
	}
	if got.ID != s.ID() {
		t.Fatalf("got session %s, want %s", got.ID, s.ID())
	}
	if trips := inj.Trips(); len(trips) != 2 {
		t.Fatalf("injector fired %d times, want 2 (one per failed attempt)", len(trips))
	}

	// A create hitting a fault fails immediately: one trip, no retry, and
	// the 503 carries Retry-After plus the ErrShardUnavailable marker.
	inj.Script(faultnet.Rule{Method: http.MethodPost, Path: "/shard/sessions"})
	_, err = rb.createSession(context.Background(), "s-002", "r", testConfig(2), nil)
	if err == nil {
		t.Fatal("create through a transport fault succeeded")
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("create error = %v, want ErrShardUnavailable", err)
	}
	if code := httpCode(err); code != http.StatusServiceUnavailable {
		t.Fatalf("create error code = %d, want 503", code)
	}
	if retryAfterOf(err) <= 0 {
		t.Fatal("unavailable-shard error carries no Retry-After")
	}
	if trips := inj.Trips(); len(trips) != 3 {
		t.Fatalf("create burned %d attempts, want exactly 1 (3 total trips)", len(trips)-2)
	}

	// The shard's own verdicts pass through untouched and unretried: a 404
	// is the shard alive and answering, not a transport failure.
	inj.Clear()
	if _, err := statusOn(rb, "s-999"); httpCode(err) != http.StatusNotFound {
		t.Fatalf("missing session error = %v (code %d), want 404", err, httpCode(err))
	}
	if rb.BreakerState() != breakerClosed {
		t.Fatalf("breaker = %s after HTTP-level errors; only transport failures count", rb.BreakerState())
	}
}

// TestRemoteBreakerOpensAndRecovers walks the breaker through a partition:
// consecutive transport failures open it, open means fast-fail without
// touching the network, and the half-open probe after the cooldown closes
// it once the shard is back.
func TestRemoteBreakerOpensAndRecovers(t *testing.T) {
	_, srv := startShard(t, 2)
	inj := faultnet.Wrap(&shardTransport{})
	rb := NewRemoteBackend(srv.URL, fastRemoteOptions(inj.Client()))
	defer rb.Close()

	s, err := rb.createSession(context.Background(), "s-001", "b", testConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}

	inj.Partition(hostOf(srv.URL))
	for i := 0; i < 3; i++ {
		if _, err := statusOn(rb, s.ID()); err == nil {
			t.Fatalf("read %d through a partition succeeded", i)
		}
	}
	if got := rb.BreakerState(); got != breakerOpen {
		t.Fatalf("breaker = %s after threshold failures, want open", got)
	}

	// Open = fail fast: no transport attempt, so the trip log stays put.
	before := len(inj.Trips())
	if _, err := statusOn(rb, s.ID()); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("open-breaker read error = %v, want ErrShardUnavailable", err)
	}
	if after := len(inj.Trips()); after != before {
		t.Fatalf("open breaker still hit the transport (%d -> %d trips)", before, after)
	}

	// Heal; after the cooldown the half-open probe succeeds and closes it.
	inj.Heal(hostOf(srv.URL))
	time.Sleep(60 * time.Millisecond)
	if _, err := statusOn(rb, s.ID()); err != nil {
		t.Fatalf("half-open probe after heal failed: %v", err)
	}
	if got := rb.BreakerState(); got != breakerClosed {
		t.Fatalf("breaker = %s after successful probe, want closed", got)
	}
}

// TestRouterPartialScatterGather is the partial-results satellite: with one
// shard dead, List/Stats keep serving the survivors and mark the response
// partial, creates routed to the dead shard 503 with Retry-After, and
// creates on live shards proceed.
func TestRouterPartialScatterGather(t *testing.T) {
	_, srv := startShard(t, 2)
	inj := faultnet.Wrap(&shardTransport{})
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, fastRemoteOptions(inj.Client()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 6
	runFleet(t, r, n)
	localIDs := 0
	for i := 1; i <= n; i++ {
		if placement.Shard(ids.Padded("s-", i, 3), 2) == 0 {
			localIDs++
		}
	}
	if localIDs == 0 || localIDs == n {
		t.Fatalf("placement put all %d sessions on one shard; partial test needs both", n)
	}

	inj.Partition(hostOf(srv.URL))

	// ListPartial: survivors plus one error entry naming the dead shard.
	sessions, shardErrs := r.ListPartial()
	if len(sessions) != localIDs {
		t.Fatalf("partial list has %d sessions, want the %d local ones", len(sessions), localIDs)
	}
	if len(shardErrs) != 1 || shardErrs[0].Shard != 1 {
		t.Fatalf("partial list errors = %+v, want exactly shard 1", shardErrs)
	}
	if shardErrs[0].Breaker == "" {
		t.Fatal("shard error does not report the breaker state")
	}

	// The HTTP listing carries the same contract.
	h := NewAPI(r).Handler()
	req := httptest.NewRequest(http.MethodGet, "/api/sessions", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var list listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if !list.Partial || len(list.Errors) != 1 || len(list.Sessions) != localIDs {
		t.Fatalf("GET /api/sessions while shard dead = partial:%v errors:%d sessions:%d",
			list.Partial, len(list.Errors), len(list.Sessions))
	}

	// Stats: partial marker, per-shard error entry, survivors still counted.
	payload := r.statsPayload()
	if payload["partial"] != true {
		t.Fatal("stats payload not marked partial with a dead shard")
	}
	shards := payload["shards"].([]map[string]any)
	if shards[1]["error"] == nil || shards[1]["breaker"] == nil {
		t.Fatalf("dead shard stats entry = %v, want error + breaker", shards[1])
	}
	if got := payload["sessions"].(map[State]int)[StateDone]; got != localIDs {
		t.Fatalf("partial stats count %d done sessions, want %d survivors", got, localIDs)
	}
	var health Health
	raw, _ := json.Marshal(payload["health"])
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if !health.Degraded || !strings.Contains(health.Reason, "shard 1") {
		t.Fatalf("health = %+v, want degraded naming shard 1", health)
	}

	// Creates: dead shard 503s with Retry-After; live shard keeps serving.
	deadCreates, liveCreates := 0, 0
	for i := 0; i < 8; i++ {
		r.mu.Lock()
		next := ids.Padded("s-", r.seq+1, 3)
		r.mu.Unlock()
		s, err := r.Create("during-partition", testConfig(uint64(50+i)))
		if placement.Shard(next, 2) == 1 {
			deadCreates++
			if !errors.Is(err, ErrShardUnavailable) || httpCode(err) != http.StatusServiceUnavailable {
				t.Fatalf("create %s on dead shard: err = %v, want 503 ErrShardUnavailable", next, err)
			}
			if retryAfterOf(err) <= 0 {
				t.Fatal("dead-shard create carries no Retry-After")
			}
			continue
		}
		liveCreates++
		if err != nil {
			t.Fatalf("create %s on live shard during partition: %v", next, err)
		}
		if s.ID() != next {
			t.Fatalf("create minted %s, predicted %s", s.ID(), next)
		}
	}
	if deadCreates == 0 || liveCreates == 0 {
		t.Fatalf("creates split dead=%d live=%d; need both paths exercised", deadCreates, liveCreates)
	}

	// Heal: scatter-gather goes whole again (the breaker needs its cooldown
	// to admit the probe).
	inj.Heal(hostOf(srv.URL))
	waitUntil(t, "scatter-gather to go whole after heal", func() bool {
		_, errs := r.ListPartial()
		return len(errs) == 0
	})
	if _, errs := r.ListPartial(); len(errs) != 0 {
		t.Fatalf("errors after heal: %+v", errs)
	}
}

// TestShardRefusesModelRegistration registers a model on a shard
// process's own API. References are resolved on the control plane's
// registry, so the shard answers 409 naming the control plane and keeps
// nothing: the entry does not list, and a model_ref to it fails as it
// would without the request.
func TestShardRefusesModelRegistration(t *testing.T) {
	m := NewShardManager(1)
	defer m.Close()
	h := ShardHandler(m)
	p := testModelParams()
	rec, _ := doJSON(t, h, "POST", "/api/models", ModelCreateRequest{
		Name: "east", VMType: "n1-highcpu-16", Zone: "us-east1-b", Model: &p,
	})
	if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "control plane") {
		t.Fatalf("POST /api/models on a shard: %d %s, want 409 naming the control plane", rec.Code, rec.Body)
	}
	if n := len(m.Models()); n != 0 {
		t.Fatalf("shard lists %d models after a refused registration, want 0", n)
	}
	if _, err := m.Create("", refConfig(1, "east")); err == nil {
		t.Fatal("session with a model_ref to the refused entry was created")
	}
}

// TestShardRefusesDuplicateID sends POST /shard/sessions twice under one
// router-minted id, then eight times at once under another, as a router
// whose id sequence fell behind the shard's would. The shard acknowledges
// each id once: every other create answers 409 and appends nothing, and
// the session first acknowledged is the one that stays.
func TestShardRefusesDuplicateID(t *testing.T) {
	m := NewShardManager(1)
	defer m.Close()
	if err := m.Restore(openStore(t, t.TempDir())); err != nil {
		t.Fatal(err)
	}
	h := ShardHandler(m)
	create := func(id string, seed uint64) int {
		body, _ := json.Marshal(shardCreateRequest{ID: id, Name: "dup", Config: testConfig(seed)})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/sessions", bytes.NewReader(body)))
		return rec.Code
	}
	appended := func() int { return m.StoreStats().Appended }

	if code := create("s-007", 1); code != http.StatusCreated {
		t.Fatalf("first create of s-007 = %d, want 201", code)
	}
	before := appended()
	if code := create("s-007", 2); code != http.StatusConflict {
		t.Fatalf("second create of s-007 = %d, want 409", code)
	}
	if n := appended() - before; n != 0 {
		t.Fatalf("refused create appended %d records", n)
	}
	s, err := m.Get("s-007")
	if err != nil {
		t.Fatal(err)
	}
	if seed := s.Status().Config.Seed; seed != 1 {
		t.Fatalf("s-007 carries seed %d: the acknowledged session was replaced", seed)
	}

	before = appended()
	codes := make(chan int, 8)
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			codes <- create("s-008", seed)
		}(uint64(i))
	}
	wg.Wait()
	close(codes)
	created := 0
	for code := range codes {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusConflict:
		default:
			t.Fatalf("concurrent create of s-008 = %d, want 201 or 409", code)
		}
	}
	if created != 1 {
		t.Fatalf("%d concurrent creates of s-008 were acknowledged, want 1", created)
	}
	if n := appended() - before; n != 1 {
		t.Fatalf("concurrent creates of s-008 appended %d records, want 1", n)
	}
	if n := len(m.List()); n != 2 {
		t.Fatalf("shard lists %d sessions, want 2", n)
	}
}

// TestRouterStatsMixedShardFailure pins the health GET /api/stats serves
// when two shards fail in different ways at once: local shard 1 degraded
// by a failing WAL fsync and remote shard 2 partitioned away. The payload
// is partial, the dead shard is listed as an error, and the aggregate
// health is degraded with a reason naming the lowest-indexed failing
// shard — the degraded local one, not the unreachable remote one.
func TestRouterStatsMixedShardFailure(t *testing.T) {
	_, srv := startShard(t, 2)
	inj := faultnet.Wrap(&shardTransport{})
	r, err := NewRouterTopology([]string{"", "", srv.URL}, 2, fastRemoteOptions(inj.Client()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	root := t.TempDir()
	stores := make([]Store, 3)
	injectors := make([]*faultfs.Injector, 2)
	for i := range injectors {
		dir := store.ShardDir(root, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		stores[i], injectors[i] = openInjectedStore(t, dir, store.Options{})
	}
	if err := r.Restore(stores); err != nil {
		t.Fatal(err)
	}
	defer closeStores(t, stores[:2])

	// Degrade shard 1: its WAL fsync fails, so the first create homed there
	// is refused and flips the shard to degraded mode.
	injectors[1].Script(faultfs.Rule{Op: faultfs.OpSync, Path: "wal"})
	for i := 1; ; i++ {
		if i > 32 {
			t.Fatal("no create landed on shard 1")
		}
		home := placement.Shard(ids.Padded("s-", i, 3), 3)
		_, err := r.Create("", testConfig(uint64(i)))
		if home != 1 {
			if err != nil {
				t.Fatalf("create on healthy shard %d: %v", home, err)
			}
			continue
		}
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("create on shard 1 with a failing WAL: err = %v, want ErrDegraded", err)
		}
		break
	}
	if !r.Shard(1).Health().Degraded {
		t.Fatal("shard 1 not degraded after its WAL fsync failed")
	}
	inj.Partition(hostOf(srv.URL))

	rec := httptest.NewRecorder()
	NewAPI(r).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/stats = %d: %s", rec.Code, rec.Body.String())
	}
	var stats struct {
		Health  Health       `json:"health"`
		Partial bool         `json:"partial"`
		Errors  []ShardError `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Partial || len(stats.Errors) != 1 || stats.Errors[0].Shard != 2 {
		t.Fatalf("stats partial=%v errors=%+v, want partial with exactly shard 2 failing", stats.Partial, stats.Errors)
	}
	if !stats.Health.Degraded || !strings.HasPrefix(stats.Health.Reason, "shard 1: ") {
		t.Fatalf("stats health = %+v, want degraded naming shard 1", stats.Health)
	}
}

// TestRouterSweepPartial runs a sweep with the remote shard partitioned:
// cells homed there carry errors and mark the report partial, while the
// local cells' reports are complete and the best-cell picks come from the
// survivors.
func TestRouterSweepPartial(t *testing.T) {
	_, srv := startShard(t, 2)
	inj := faultnet.Wrap(&shardTransport{})
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, fastRemoteOptions(inj.Client()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	inj.Partition(hostOf(srv.URL))
	rep, err := r.Sweep(SweepRequest{
		VMTypes:  []string{"n1-highcpu-4", "n1-highcpu-8", "n1-highcpu-16"},
		Policies: []string{PolicyReuse, PolicyMemoryless},
		VMs:      16,
		Seed:     1,
		Model:    &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
		Bag:      BagRequest{App: "shapes", Jobs: 4, Seed: 1},
	})
	if err != nil {
		t.Fatalf("sweep with a dead shard must degrade, not fail: %v", err)
	}
	if !rep.Partial {
		t.Fatal("sweep report not marked partial with a dead shard")
	}
	okCells, deadCells := 0, 0
	for _, cell := range rep.Cells {
		if cell.Error != "" {
			deadCells++
			continue
		}
		okCells++
		if cell.Report == nil {
			t.Fatalf("surviving cell %s/%s has no report", cell.VMType, cell.Policy)
		}
	}
	if okCells == 0 || deadCells == 0 {
		t.Fatalf("sweep cells ok=%d dead=%d; need both", okCells, deadCells)
	}
	if rep.Cheapest == "" || rep.Fastest == "" {
		t.Fatal("partial sweep did not pick best cells among survivors")
	}

	// The same grid healed is complete and not partial.
	inj.Clear()
	waitUntil(t, "breaker to readmit the shard", func() bool {
		_, errs := r.ListPartial()
		return len(errs) == 0
	})
	rep2, err := r.Sweep(SweepRequest{
		VMTypes:  []string{"n1-highcpu-4", "n1-highcpu-8", "n1-highcpu-16"},
		Policies: []string{PolicyReuse, PolicyMemoryless},
		VMs:      16,
		Seed:     1,
		Model:    &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
		Bag:      BagRequest{App: "shapes", Jobs: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Partial {
		t.Fatal("healed sweep still marked partial")
	}
	for _, cell := range rep2.Cells {
		if cell.Error != "" || cell.Report == nil {
			t.Fatalf("healed sweep cell %s/%s: error %q", cell.VMType, cell.Policy, cell.Error)
		}
	}
}

// TestRouterModelUsableAfterPartitionHeals registers a model while the
// remote shard is partitioned away, so the shard never hears of it. As
// soon as the partition heals, a remote-homed create pins the model all
// the same — with no sync in between — because the create itself carries
// the pinned parameters.
func TestRouterModelUsableAfterPartitionHeals(t *testing.T) {
	_, srv := startShard(t, 2)
	inj := faultnet.Wrap(&shardTransport{})
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, fastRemoteOptions(inj.Client()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	inj.Partition(hostOf(srv.URL))
	if _, err := r.RegisterModel(ModelCreateRequest{
		Name: "west", VMType: "n1-highcpu-16", Zone: "us-east1-b",
		Model: &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
	}); err != nil {
		t.Fatal(err)
	}
	cfg := refConfig(1, "west@latest")
	// create returns whether a create landed on the remote shard, failing
	// the test on any error but the partition's.
	create := func() bool {
		s, err := r.Create("ref", cfg)
		if err != nil {
			if !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("create: %v", err)
			}
			return false
		}
		if got := s.Status().Config.ModelRef; got != "west@v1" {
			t.Fatalf("session %s pinned %q, want west@v1", s.ID(), got)
		}
		return placement.Shard(s.ID(), 2) == 1
	}
	for i := 0; i < 8; i++ {
		if create() {
			t.Fatal("a create reached the partitioned shard")
		}
	}

	inj.Heal(hostOf(srv.URL))
	waitUntil(t, "a remote-homed create after the heal", create)
}

// TestRemoteSessionLifecycleOverHTTP drives a remote-homed session through
// the public API end to end — create, bag, estimate, run, report, jobs,
// vms, delete — so every session route is forwarded at least once. The
// router keeps nothing for the session that could reach the shard: its
// Get refuses the id, and a create's receipt refuses every method that
// needs the simulation, which only the shard's API serves.
func TestRemoteSessionLifecycleOverHTTP(t *testing.T) {
	_, srv := startShard(t, 2)
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := NewAPI(r).Handler()

	// Mint sessions until one homes on the remote shard.
	var id string
	for i := 0; i < 8; i++ {
		rec, out := doJSON(t, h, "POST", "/api/sessions", createRequest{Name: "remote", Config: testConfig(7)})
		if rec.Code != http.StatusCreated {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		if placement.Shard(out["id"].(string), 2) == 1 {
			id = out["id"].(string)
			break
		}
	}
	if id == "" {
		t.Fatal("no session homed on the remote shard")
	}

	rec, out := doJSON(t, h, "POST", "/api/sessions/"+id+"/bags",
		BagRequest{App: "shapes", Jobs: 6, Seed: 7})
	if rec.Code != http.StatusAccepted || out["submitted"].(float64) != 6 {
		t.Fatalf("bags: %d %s", rec.Code, rec.Body)
	}
	rec, out = doJSON(t, h, "POST", "/api/sessions/"+id+"/estimate",
		BagRequest{App: "shapes", Jobs: 6, Seed: 7})
	if rec.Code != http.StatusOK || out["expected_makespan_hours"].(float64) <= 0 {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body)
	}
	if rec, _ := doJSON(t, h, "POST", "/api/sessions/"+id+"/run", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("run: %d", rec.Code)
	}
	final := waitDone(t, h, id)
	if final["state"] != string(StateDone) {
		t.Fatalf("remote session ended %v", final["state"])
	}
	rec, _ = doJSON(t, h, "GET", "/api/sessions/"+id+"/report", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("report: %d %s", rec.Code, rec.Body)
	}
	rec, _ = doJSON(t, h, "GET", "/api/sessions/"+id+"/jobs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("jobs: %d", rec.Code)
	}
	if _, err := r.Get(id); httpCode(err) != http.StatusNotImplemented {
		t.Errorf("Router.Get of a remote-homed session: %v, want a 501", err)
	}
	var rcpt *Session
	for rcpt == nil {
		s, err := r.Create("receipt", testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		if placement.Shard(s.ID(), 2) == 1 {
			rcpt = s
		}
	}
	if st := rcpt.Status(); st.ID != rcpt.ID() || st.State != StateCreated || st.Config.Seed != 8 {
		t.Errorf("receipt status = %+v, want the created status the shard answered", st)
	}
	select {
	case <-rcpt.Done():
	default:
		t.Error("a receipt's Done is open; a receipt never changes")
	}
	bag := BagRequest{App: "shapes", Jobs: 6, Seed: 7}
	_, _, bagErr := rcpt.SubmitBag(bag)
	_, estErr := rcpt.Estimate(bag)
	_, repErr := rcpt.Report()
	_, jobsErr := rcpt.Jobs()
	_, vmsErr := rcpt.VMs()
	for _, err := range []error{bagErr, estErr, repErr, jobsErr, vmsErr, r.Run(rcpt)} {
		if httpCode(err) != http.StatusNotImplemented {
			t.Errorf("a receipt's SubmitBag/Estimate/Report/Jobs/VMs or Router.Run: %v, want a 501", err)
		}
	}
	rec, _ = doJSON(t, h, "GET", "/api/sessions/"+id+"/vms", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("vms: %d", rec.Code)
	}
	rec, _ = doJSON(t, h, "DELETE", "/api/sessions/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	if rec, _ := doJSON(t, h, "GET", "/api/sessions/"+id, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("deleted remote session still answers: %d", rec.Code)
	}
}

// TestRouterResyncsIDsOnConflict builds routers over a shard that already
// holds s-001 to s-008 and syncs neither, so each router's id sequence
// starts behind the shard's. Every create through the API answers 201: the
// shard refuses an id at or below its high-water mark with 409, and the
// router adopts the mark and creates again under a fresh id. A sweep
// through a second such router completes the same way, its refused group
// run again under fresh ids.
func TestRouterResyncsIDsOnConflict(t *testing.T) {
	m, srv := startShard(t, 2)
	for i := 1; i <= 8; i++ {
		if _, err := m.createSession(context.Background(), ids.Padded("s-", i, 3), "held", testConfig(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	behind := func() (*Router, http.Handler) {
		t.Helper()
		r, err := NewRouterTopology([]string{"", srv.URL}, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r, NewAPI(r).Handler()
	}

	_, h := behind()
	remote := 0
	for i := 0; i < 8; i++ {
		rec := call(t, h, "POST", "/api/sessions", createRequest{Config: testConfig(uint64(20 + i))})
		var st SessionStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
			t.Fatalf("create %d behind the shard's id sequence: %d %s", i, rec.Code, rec.Body)
		}
		if placement.Shard(st.ID, 2) == 1 {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no create homed on the remote shard")
	}

	r, _ := behind()
	publishEast(t, r)
	rep, err := r.Sweep(topologySweep())
	if err != nil {
		t.Fatal(err)
	}
	remote = 0
	for _, c := range rep.Cells {
		if c.Error != "" && c.Policy != "warp-drive" && c.ModelRef != "west@v1" {
			t.Fatalf("cell %s/%s failed: %s", c.Policy, c.ModelRef, c.Error)
		}
		if c.Report != nil && placement.Shard(c.SessionID, 2) == 1 {
			remote++
		}
	}
	if rep.Partial || remote == 0 {
		t.Fatalf("sweep behind the shard's id sequence: partial=%v with %d remote cells done", rep.Partial, remote)
	}
}

// TestRouterBehindNeverRemintsDeletedID has a shard create and delete the
// first three ids homed on it, so it holds nothing. A router whose
// transport refuses GET /shard/info, so only a create's answer can tell it
// the shard's mark, then creates through the API until its sequence is
// past those ids. Every create answers 201 under an id no session has had
// before: the shard refuses an id it created and deleted as it refuses
// one it holds.
func TestRouterBehindNeverRemintsDeletedID(t *testing.T) {
	m, srv := startShard(t, 2)
	deleted := map[string]bool{}
	last := 0
	for n := 1; len(deleted) < 3; n++ {
		id := ids.Padded("s-", n, 3)
		if placement.Shard(id, 2) != 1 {
			continue
		}
		if _, err := m.createSession(context.Background(), id, "gone", testConfig(uint64(n)), nil); err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted[id], last = true, n
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("shard holds %d sessions, want 0", n)
	}

	inj := faultnet.Wrap(&shardTransport{})
	inj.Script(faultnet.Rule{Method: http.MethodGet, Path: "/shard/info"})
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, fastRemoteOptions(inj.Client()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := NewAPI(r).Handler()
	seen := map[string]bool{}
	for i := 0; i < last; i++ {
		rec := call(t, h, "POST", "/api/sessions", createRequest{Config: testConfig(uint64(40 + i))})
		var st SessionStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
			t.Fatalf("create %d behind the shard: %d %s", i, rec.Code, rec.Body)
		}
		if deleted[st.ID] || seen[st.ID] {
			t.Fatalf("create %d answered 201 under %s, an id already used", i, st.ID)
		}
		seen[st.ID] = true
	}
	if trips := inj.Trips(); len(trips) != 0 {
		t.Fatalf("the router asked the shard for its info %d times; nothing but SyncRemotes should", len(trips))
	}
}

// TestRouterConcurrentCreatesAndSweepKeepIDsUnique sends 32 API creates and
// one sweep through one Router{1 local + 1 remote} at once. Creates race
// each other to the remote shard, so some reach it behind a higher id and
// are refused; each must still answer 201, every sweep cell must run, and
// no id may be handed out twice.
func TestRouterConcurrentCreatesAndSweepKeepIDsUnique(t *testing.T) {
	_, srv := startShard(t, 2)
	r, err := NewRouterTopology([]string{"", srv.URL}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h := NewAPI(r).Handler()

	const creates, cells = 32, 6 // cells: 3 VM types × 2 policies
	got := make(chan string, creates+cells)
	var wg sync.WaitGroup
	for i := 0; i < creates; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := call(t, h, "POST", "/api/sessions", createRequest{Config: testConfig(uint64(i + 1))})
			var st SessionStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
				t.Errorf("concurrent create %d: %d %s", i, rec.Code, rec.Body)
				return
			}
			got <- st.ID
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := call(t, h, "POST", "/api/sweep", SweepRequest{
			VMTypes:  []string{"n1-highcpu-4", "n1-highcpu-8", "n1-highcpu-16"},
			Policies: []string{PolicyReuse, PolicyMemoryless},
			VMs:      16,
			Seed:     1,
			Model:    &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
			Bag:      BagRequest{App: "shapes", Jobs: 4, Seed: 1},
		})
		var rep SweepReport
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rec.Code != http.StatusOK {
			t.Errorf("concurrent sweep: %d %s", rec.Code, rec.Body)
			return
		}
		for _, c := range rep.Cells {
			if c.Error != "" || c.Report == nil {
				t.Errorf("sweep cell %s/%s (%s): %q", c.VMType, c.Policy, c.SessionID, c.Error)
			}
			got <- c.SessionID
		}
	}()
	wg.Wait()
	close(got)
	seen, remote := map[string]bool{}, 0
	for id := range got {
		if seen[id] {
			t.Errorf("id %s handed out twice", id)
		}
		seen[id] = true
		if placement.Shard(id, 2) == 1 {
			remote++
		}
	}
	if len(seen) != creates+cells || remote == 0 {
		t.Fatalf("%d distinct ids (%d remote-homed), want %d with some remote", len(seen), remote, creates+cells)
	}
}
