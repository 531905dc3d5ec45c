package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/registry"
	"repro/internal/store"
)

// Sharding tests: the Router must be observationally identical to a single
// Manager — same ids, same listing order, byte-identical reports — while
// splitting sessions, stores, and faults across shards.

// runFleet creates n sessions on b, loads and runs them through b's HTTP
// API (which forwards a remote-homed session's requests to its shard), and
// returns every listed session's marshaled report keyed by id, once its
// run is over (see reportOf).
func runFleet(t *testing.T, b Backend, n int) map[string]string {
	t.Helper()
	h := NewAPI(b).Handler()
	for i := 1; i <= n; i++ {
		s, err := b.CreateCtx(context.Background(), fmt.Sprintf("w-%d", i), testConfig(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		p := "/api/sessions/" + s.ID()
		if rec := call(t, h, "POST", p+"/bags", BagRequest{App: "shapes", Jobs: 6 + i, Jitter: 0.01, Seed: uint64(i)}); rec.Code != http.StatusAccepted {
			t.Fatalf("bags: %d %s", rec.Code, rec.Body)
		}
		if rec := call(t, h, "POST", p+"/run", nil); rec.Code != http.StatusAccepted {
			t.Fatalf("run: %d %s", rec.Code, rec.Body)
		}
	}
	sessions, errs := b.ListPartial()
	if len(errs) > 0 {
		t.Fatalf("listing: %v", errs)
	}
	out := make(map[string]string, n)
	for _, st := range sessions {
		out[st.ID] = reportOf(t, h, st.ID)
	}
	return out
}

// TestShardedReportsByteIdentical is the tentpole equivalence gate: the
// same create sequence produces the same ids and byte-identical reports on
// a bare Manager, a single-shard Router, and a four-shard Router.
func TestShardedReportsByteIdentical(t *testing.T) {
	const n = 6
	baseline := runFleet(t, NewManager(2), n)
	single := runFleet(t, NewRouter(1, 2), n)
	quad := runFleet(t, NewRouter(4, 2), n)

	if len(baseline) != n || len(single) != n || len(quad) != n {
		t.Fatalf("fleet sizes diverge: manager %d, shards=1 %d, shards=4 %d",
			len(baseline), len(single), len(quad))
	}
	for id, want := range baseline {
		if got := single[id]; got != want {
			t.Errorf("session %s: shards=1 report differs from manager:\n  %s\nvs\n  %s", id, got, want)
		}
		if got := quad[id]; got != want {
			t.Errorf("session %s: shards=4 report differs from manager:\n  %s\nvs\n  %s", id, got, want)
		}
	}
}

// TestRouterListOrder checks scatter-gather listing merges back into global
// creation order regardless of which shard owns which session.
func TestRouterListOrder(t *testing.T) {
	r := NewRouter(4, 2)
	for i := 1; i <= 8; i++ {
		if _, err := r.Create("", testConfig(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	list := r.List()
	if len(list) != 8 {
		t.Fatalf("listed %d sessions, want 8", len(list))
	}
	homes := make(map[int]bool)
	for i, s := range list {
		if want := ids.Padded("s-", i+1, 3); s.ID != want {
			t.Fatalf("list[%d] = %s, want %s", i, s.ID, want)
		}
		homes[placement.Shard(s.ID, 4)] = true
	}
	if len(homes) < 2 {
		t.Fatalf("all 8 sessions landed on %d shard(s); placement is not spreading", len(homes))
	}
	// Routed lookups agree with placement: the owner has it, nobody else.
	for _, s := range list {
		home := placement.Shard(s.ID, 4)
		for i := 0; i < 4; i++ {
			_, err := r.Shard(i).Get(s.ID)
			if (err == nil) != (i == home) {
				t.Fatalf("shard %d Get(%s) err=%v; home is %d", i, s.ID, err, home)
			}
		}
	}
}

// openShardStores opens (creating if needed) one store per shard dir.
func openShardStores(t *testing.T, root string, n int) []Store {
	t.Helper()
	stores := make([]Store, n)
	for i := range stores {
		dir := store.ShardDir(root, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	return stores
}

func closeStores(t *testing.T, stores []Store) {
	t.Helper()
	for _, st := range stores {
		if err := st.(*store.Log).Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterRestoreAcrossShardCounts boots the same data dir at 1, then 4,
// then back to 1 shard: every session survives each transition, lands on
// its hash-placed home store, and the drained extra stores keep only the
// id high-water mark.
func TestRouterRestoreAcrossShardCounts(t *testing.T) {
	root := t.TempDir()

	// Boot 1: single shard, eight completed sessions.
	r1 := NewRouter(1, 2)
	st1 := openShardStores(t, root, 1)
	if err := r1.Restore(st1); err != nil {
		t.Fatal(err)
	}
	want := runFleet(t, r1, 8)
	r1.Close()
	closeStores(t, st1)

	// Boot 2: four shards. Sessions re-home by hash; reports must be intact
	// and each shard's store must hold exactly its owned sessions.
	r4 := NewRouter(4, 2)
	st4 := openShardStores(t, root, 4)
	if err := r4.Restore(st4); err != nil {
		t.Fatal(err)
	}
	for id, wantRep := range want {
		s, err := r4.Get(id)
		if err != nil {
			t.Fatalf("session %s lost growing 1 -> 4 shards: %v", id, err)
		}
		rep, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(rep)
		if string(raw) != wantRep {
			t.Fatalf("session %s report changed across reshard", id)
		}
	}
	// Per-shard stores: after the boot compaction, reopening each store
	// must replay only the sessions placement assigns to it.
	for i, st := range st4 {
		for _, rec := range st.Records() {
			if rec.Kind != kindCreate {
				continue
			}
			if home := placement.Shard(rec.ID, 4); home != i {
				t.Fatalf("shard %d store holds session %s (home %d)", i, rec.ID, home)
			}
		}
	}
	// New sessions keep the global sequence and persist on their own shard.
	// runFleet lists everything, so filter down to the ids it minted.
	after := runFleet(t, r4, 2)
	newIDs := 0
	for id, rep := range after {
		if _, restored := want[id]; restored {
			continue
		}
		newIDs++
		var n int
		fmt.Sscanf(id, "s-%d", &n)
		if n <= 8 {
			t.Fatalf("new session reused id %s", id)
		}
		want[id] = rep
	}
	if newIDs != 2 {
		t.Fatalf("minted %d new sessions, want 2", newIDs)
	}
	r4.Close()
	closeStores(t, st4)

	// The shard WAL layout is real files on disk, one stream per shard.
	for i := 1; i < 4; i++ {
		if _, err := os.Stat(store.ShardDir(root, i)); err != nil {
			t.Fatalf("shard %d dir missing: %v", i, err)
		}
	}

	// Boot 3: shrink back to one shard; the shard-001..003 dirs are extras.
	extraIdx, err := store.FindShardDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(extraIdx) != 3 {
		t.Fatalf("found shard dirs %v, want [1 2 3]", extraIdx)
	}
	rBack := NewRouter(1, 2)
	stBack := openShardStores(t, root, 1)
	var extras []Store
	for _, i := range extraIdx {
		st, err := store.Open(store.ShardDir(root, i))
		if err != nil {
			t.Fatal(err)
		}
		extras = append(extras, st)
	}
	if err := rBack.Restore(stBack, extras...); err != nil {
		t.Fatal(err)
	}
	for id, wantRep := range want {
		s, err := rBack.Get(id)
		if err != nil {
			t.Fatalf("session %s lost shrinking 4 -> 1 shards: %v", id, err)
		}
		rep, err := s.Report()
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(rep)
		if string(raw) != wantRep {
			t.Fatalf("session %s report changed shrinking to 1 shard", id)
		}
	}
	// Ids minted after the shrink must clear every id ever issued.
	s, err := rBack.Create("fresh", testConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	if want[s.ID()] != "" {
		t.Fatalf("post-shrink create reused id %s", s.ID())
	}
	rBack.Close()
	closeStores(t, stBack)
	closeStores(t, extras)

	// Drained extras hold only the seq record, with the high-water mark.
	for _, i := range extraIdx {
		st, err := store.Open(store.ShardDir(root, i))
		if err != nil {
			t.Fatal(err)
		}
		recs := st.Records()
		if len(recs) != 1 || recs[0].Kind != kindSeq {
			t.Fatalf("extra shard %d not drained: %d records", i, len(recs))
		}
		var sr seqRecord
		if err := json.Unmarshal(recs[0].Data, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Max < 10 {
			t.Fatalf("drained shard %d seq = %d, want >= 10", i, sr.Max)
		}
		st.Close()
	}
}

// TestRouterShardDegradedIsolation is the chaos gate: one shard's disk
// fails, that shard flips degraded (creates routed to it get 503 with
// Retry-After), every other shard keeps serving writes, and healing the
// disk recovers only the broken shard.
func TestRouterShardDegradedIsolation(t *testing.T) {
	root := t.TempDir()
	const nshards = 4
	stores := make([]Store, nshards)
	injectors := make([]*faultfs.Injector, nshards)
	for i := range stores {
		dir := store.ShardDir(root, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		stores[i], injectors[i] = openInjectedStore(t, dir, store.Options{})
	}
	r := NewRouter(nshards, 2)
	r.SetProbeInterval(5 * 1e6) // 5ms
	if err := r.Restore(stores); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer closeStores(t, stores)

	// Break the shard that will own the first minted id, so the very first
	// create exercises the failure path.
	broken := placement.Shard(ids.Padded("s-", 1, 3), nshards)
	injectors[broken].Script(faultfs.Rule{Op: faultfs.OpSync, Path: "wal"})

	okByShard := make(map[int]int)
	for i := 1; i <= 16; i++ {
		id := ids.Padded("s-", i, 3)
		home := placement.Shard(id, nshards)
		s, err := r.Create("", testConfig(uint64(i)))
		if home == broken {
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("create %s on broken shard %d: err = %v, want ErrDegraded", id, home, err)
			}
			if code := httpCode(err); code != http.StatusServiceUnavailable {
				t.Fatalf("degraded create = %d, want 503", code)
			}
			if retryAfterOf(err) <= 0 {
				t.Fatal("degraded create carries no Retry-After")
			}
			continue
		}
		if err != nil {
			t.Fatalf("create %s on healthy shard %d failed: %v", id, home, err)
		}
		if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := r.Run(s); err != nil {
			t.Fatal(err)
		}
		s.Wait()
		if got := s.Status().State; got != StateDone {
			t.Fatalf("session %s on healthy shard ended %s", id, got)
		}
		okByShard[home]++
	}
	if len(okByShard) != nshards-1 {
		t.Fatalf("healthy shards serving: %v, want all %d others", okByShard, nshards-1)
	}

	// Aggregate health names the broken shard; the others stay clean.
	h := r.statsPayload()["health"].(Health)
	if !h.Degraded || !strings.HasPrefix(h.Reason, fmt.Sprintf("shard %d: ", broken)) {
		t.Fatalf("router health = %+v, want degraded naming shard %d", h, broken)
	}
	for i := 0; i < nshards; i++ {
		if got := r.Shard(i).Health().Degraded; got != (i == broken) {
			t.Fatalf("shard %d degraded=%v; only shard %d should be", i, got, broken)
		}
	}

	// Heal: the broken shard's probe recovers it and creates flow again.
	injectors[broken].Clear()
	waitUntil(t, "broken shard to recover", func() bool { return !r.statsPayload()["health"].(Health).Degraded })
	for i := 0; i < 8; i++ {
		s, err := r.Create("post-heal", testConfig(uint64(100+i)))
		if err != nil {
			t.Fatalf("create after heal: %v", err)
		}
		if placement.Shard(s.ID(), nshards) == broken {
			return // a create landed on the healed shard and succeeded
		}
	}
	t.Fatal("no post-heal create landed on the healed shard")
}

// TestRouterPinsModelRefOnEveryShard registers a model on the control
// plane of Router{4} and of Router{1 local + 1 remote} and creates @latest
// sessions across every shard: each pins the control plane's latest
// version. A version published on the control plane is what the very next
// create pins, on every shard, with no sync call in between, and a session
// pinned to it simulates exactly that version's parameters.
func TestRouterPinsModelRefOnEveryShard(t *testing.T) {
	_, srv := startShard(t, 2)
	mixed, err := NewRouterTopology([]string{"", srv.URL}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    *Router
	}{{"4-local", NewRouter(4, 2)}, {"local+remote", mixed}} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.r
			defer r.Close()
			n := r.Shards()
			if _, err := r.RegisterModel(ModelCreateRequest{
				Name: "east", VMType: "n1-highcpu-16", Zone: "us-east1-b",
				Model: &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
			}); err != nil {
				t.Fatal(err)
			}
			cfg := refConfig(1, "east@latest")
			// createAll creates 8 sessions, requires each pinned to want, and
			// returns one homed off the control plane.
			createAll := func(want string) *Session {
				var off *Session
				for i := 0; i < 8; i++ {
					s, err := r.Create("ref", cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := s.Status().Config.ModelRef; got != want {
						t.Fatalf("session %s pinned %q, want %s", s.ID(), got, want)
					}
					if placement.Shard(s.ID(), n) != 0 {
						off = s
					}
				}
				if off == nil {
					t.Fatal("no session landed on a non-control shard")
				}
				return off
			}
			createAll("east@v1")

			v2 := ModelParams{A: 0.5, Tau1: 1.2, Tau2: 0.7, B: 24, L: 24}
			if _, err := r.control().registry.Publish("east",
				registry.Provenance{Family: "manual", Params: v2, Source: "refit"}, nil); err != nil {
				t.Fatal(err)
			}
			off := createAll("east@v2")
			raw := runOn(t, r, off.ID())
			inline := testConfig(1)
			inline.Model = &v2
			if _, want := runReport(t, NewManager(1), inline); raw != want {
				t.Fatalf("session pinned to east@v2 on shard %d diverged from inline v2 params:\n ref:    %s\n inline: %s",
					placement.Shard(off.ID(), n), raw, want)
			}

			// An unknown ref fails cleanly.
			if _, err := r.Create("bad", refConfig(1, "west@latest")); err == nil {
				t.Fatal("unknown model_ref resolved")
			}
		})
	}
}

// TestModelRefByteIdenticalAcrossTopologiesAndRestart creates the same
// model_ref sessions on Router{1}, Router{4} and Router{1 local + 1
// remote}, publishes a refit, and restarts every process. Each session's
// report equals an inline-parameter session's with the same numbers — so
// it is the same on every topology — before and after the restart, and
// the first create after the restart pins the refit.
func TestModelRefByteIdenticalAcrossTopologiesAndRestart(t *testing.T) {
	const n = 4
	inline := make([]string, n)
	for i := range inline {
		_, inline[i] = runReport(t, NewManager(1), testConfig(uint64(i+1)))
	}
	for _, tc := range []struct {
		name   string
		locals int
		remote bool
	}{{"1", 1, false}, {"4", 4, false}, {"local+remote", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			// boot starts the topology over the stores under root (a remote
			// shard restores its own) and returns the router and a func
			// that stops everything boot started.
			boot := func() (*Router, func()) {
				topology := make([]string, tc.locals)
				var stops []func()
				if tc.remote {
					sm := NewShardManager(2)
					sm.SetShardIndex(tc.locals)
					st := openStore(t, store.ShardDir(root, tc.locals))
					if err := sm.Restore(st); err != nil {
						t.Fatal(err)
					}
					srv := httptest.NewServer(ShardHandler(sm))
					topology = append(topology, srv.URL)
					stops = append(stops, srv.Close, sm.Close, func() { st.Close() })
				}
				r, err := NewRouterTopology(topology, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				stores := make([]Store, len(topology))
				for i := 0; i < tc.locals; i++ {
					dir := store.ShardDir(root, i)
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					st := openStore(t, dir)
					stores[i] = st
					stops = append(stops, func() { st.Close() })
				}
				if err := r.Restore(stores); err != nil {
					t.Fatal(err)
				}
				r.SyncRemotes()
				return r, func() {
					r.Close()
					for _, stop := range stops {
						stop()
					}
				}
			}

			r, stop := boot()
			p := testModelParams()
			if _, err := r.RegisterModel(ModelCreateRequest{
				Name: "east", VMType: "n1-highcpu-16", Zone: "us-east1-b",
				Model: &p, MinRefitSamples: 150,
			}); err != nil {
				t.Fatal(err)
			}
			ids := make([]string, n)
			shards := make(map[int]bool)
			for i := range ids {
				s, rep := runReport(t, r, refConfig(uint64(i+1), "east@latest"))
				if got := s.Status().Config.ModelRef; got != "east@v1" {
					t.Fatalf("session %s pinned %q, want east@v1", s.ID(), got)
				}
				if rep != inline[i] {
					t.Fatalf("session %s diverged from the inline-parameter run:\n ref:    %s\n inline: %s", s.ID(), rep, inline[i])
				}
				ids[i] = s.ID()
				shards[placement.Shard(s.ID(), r.Shards())] = true
			}
			if r.Shards() > 1 && len(shards) < 2 {
				t.Fatalf("every session landed on one shard (%v); the test needs several", shards)
			}
			if _, err := r.IngestObservations("east", driftedLifetimes(300, 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := r.RefitModel("east", "refit"); err != nil {
				t.Fatal(err)
			}
			stop()

			r, stop = boot()
			defer stop()
			h := NewAPI(r).Handler()
			for i, id := range ids {
				if got := statusOf(t, h, id).Config.ModelRef; got != "east@v1" {
					t.Fatalf("restored session %s pinned %q, want east@v1", id, got)
				}
				if raw := reportOf(t, h, id); raw != inline[i] {
					t.Fatalf("restored session %s diverged:\n  %s\nvs\n  %s", id, raw, inline[i])
				}
			}
			s, err := r.Create("", refConfig(1, "east@latest"))
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Status().Config.ModelRef; got != "east@v2" {
				t.Fatalf("post-restart @latest session pinned %q, want east@v2", got)
			}
		})
	}
}

// TestRouterStatsShardsArray checks /api/stats keeps its single-manager
// top-level keys while adding per-shard detail.
func TestRouterStatsShardsArray(t *testing.T) {
	r := NewRouter(4, 2)
	runFleet(t, r, 5)
	payload := r.statsPayload()
	for _, key := range []string{"sessions", "models", "schedule_cache", "dp_solves", "health"} {
		if _, ok := payload[key]; !ok {
			t.Fatalf("stats payload missing backward-compatible key %q", key)
		}
	}
	shards, ok := payload["shards"].([]map[string]any)
	if !ok || len(shards) != 4 {
		t.Fatalf("stats payload shards = %T (len %d), want 4 entries", payload["shards"], len(shards))
	}
	total := 0
	for i, sh := range shards {
		if sh["shard"] != i {
			t.Fatalf("shards[%d] labeled %v", i, sh["shard"])
		}
		total += sh["sessions"].(map[State]int)[StateDone]
	}
	if agg := payload["sessions"].(map[State]int)[StateDone]; agg != 5 || total != 5 {
		t.Fatalf("done sessions: aggregate %d, shard sum %d, want 5", agg, total)
	}
}
