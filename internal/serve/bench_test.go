package serve

import (
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/policy"
	"repro/internal/store"
)

// benchSessions measures end-to-end session throughput: each iteration
// creates `batch` sessions (checkpointing enabled so the DP planner is on
// the path), runs them on a pool of the given width, and waits for all
// reports. It reports sessions/sec and the shared schedule cache's hit
// rate — the cache is reset once per benchmark, so the first session pays
// the solve and the steady state shows up as a hit rate near 1.
func benchSessions(b *testing.B, parallelism int) {
	const batchSize = 8
	policy.ResetSharedCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr := NewManager(parallelism)
		sessions := make([]*Session, batchSize)
		for j := range sessions {
			s, err := mgr.Create("", ckptBenchConfig(uint64(j+1)))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 10, Seed: 1}); err != nil {
				b.Fatal(err)
			}
			if err := mgr.Run(s); err != nil {
				b.Fatal(err)
			}
			sessions[j] = s
		}
		mgr.Wait()
		for _, s := range sessions {
			if _, err := s.Report(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N*batchSize)/sec, "sessions/sec")
	}
	b.ReportMetric(policy.SharedCacheStats().HitRate(), "cache_hit_rate")
}

// ckptBenchConfig mirrors ckptConfig but lives here so the benchmark file
// reads standalone in -bench output.
func ckptBenchConfig(seed uint64) SessionConfig {
	cfg := testConfig(seed)
	cfg.CheckpointDelta = 0.05
	cfg.CheckpointStep = 0.25
	return cfg
}

// BenchmarkServiceSessionsP1 is the serial baseline.
func BenchmarkServiceSessionsP1(b *testing.B) { benchSessions(b, 1) }

// BenchmarkServiceSessionsPMax runs the pool at GOMAXPROCS; on multi-core
// machines throughput scales with core count while every session's report
// stays byte-identical to its serial run.
func BenchmarkServiceSessionsPMax(b *testing.B) { benchSessions(b, runtime.GOMAXPROCS(0)) }

// benchSessionsSharded measures end-to-end session throughput through the
// Router with persistence on: each iteration boots nshards executor shards
// (each with its own WAL store, fsync disabled so the measurement is append
// and lock contention rather than disk latency), then creates, runs, and
// reports batchSize sessions. At nshards=1 every persist serializes on one
// store; at nshards=4 the WAL streams are independent, so on multi-core
// machines throughput scales with the shard count while every report stays
// byte-identical (TestShardedReportsByteIdentical). Parallelism is rounded
// up to a multiple of the shard count so the per-shard worker pools divide
// evenly and the shard counts stay comparable.
func benchSessionsSharded(b *testing.B, nshards int) {
	const batchSize = 8
	par := runtime.GOMAXPROCS(0)
	par = (par + nshards - 1) / nshards * nshards
	policy.ResetSharedCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := b.TempDir()
		stores := make([]Store, nshards)
		for j := range stores {
			dir := store.ShardDir(root, j)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				b.Fatal(err)
			}
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			st.SetSync(false)
			stores[j] = st
		}
		r := NewRouter(nshards, par)
		if err := r.Restore(stores); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sessions := make([]*Session, batchSize)
		for j := range sessions {
			s, err := r.Create("", ckptBenchConfig(uint64(j+1)))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 10, Seed: 1}); err != nil {
				b.Fatal(err)
			}
			if err := r.Run(s); err != nil {
				b.Fatal(err)
			}
			sessions[j] = s
		}
		r.Wait()
		for _, s := range sessions {
			if _, err := s.Report(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		r.Close()
		for _, st := range stores {
			st.(*store.Log).Close()
		}
		b.StartTimer()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*batchSize)/sec, "sessions/sec")
	}
}

// BenchmarkServiceSessionsSharded1 is the single-shard (pre-sharding
// equivalent) persistent baseline.
func BenchmarkServiceSessionsSharded1(b *testing.B) { benchSessionsSharded(b, 1) }

// BenchmarkServiceSessionsSharded4 runs the same workload across four
// shards with four independent WAL streams.
func BenchmarkServiceSessionsSharded4(b *testing.B) { benchSessionsSharded(b, 4) }

// BenchmarkServiceSessionsRemote runs the sharded workload with the second
// shard across a real process boundary: a loopback shard subprocess (the
// re-exec'd test binary, booted outside the timer) behind a RemoteBackend.
// Each session is driven through the router's HTTP API, as a client would:
// the timed path is therefore the shard protocol itself — a create, then
// forwarded bag, run, event-stream and report requests, JSON over loopback
// HTTP — on top of the same planner work, so the gap to
// BenchmarkServiceSessionsSharded1 is the transport cost of distribution
// (plus the API's own encoding, which local sessions pay here too).
// Sessions placed on shard 0 never see a socket.
func BenchmarkServiceSessionsRemote(b *testing.B) {
	const batchSize = 8
	par := runtime.GOMAXPROCS(0)
	par = (par + 1) / 2 * 2
	policy.ResetSharedCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		addr := freeAddr(b)
		cmd := shardSpawn(addr, "")(0, addr)
		if err := cmd.Start(); err != nil {
			b.Fatal(err)
		}
		waitShardReady(b, addr)
		r, err := NewRouterTopology([]string{"", addr}, par, nil)
		if err != nil {
			b.Fatal(err)
		}
		h := NewAPI(r).Handler()
		b.StartTimer()
		ids := make([]string, batchSize)
		for j := range ids {
			s, err := r.Create("", ckptBenchConfig(uint64(j+1)))
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = s.ID()
			p := "/api/sessions/" + s.ID()
			if rec := call(b, h, "POST", p+"/bags", BagRequest{App: "shapes", Jobs: 10, Seed: 1}); rec.Code != http.StatusAccepted {
				b.Fatalf("bags: %d %s", rec.Code, rec.Body)
			}
			if rec := call(b, h, "POST", p+"/run", nil); rec.Code != http.StatusAccepted {
				b.Fatalf("run: %d %s", rec.Code, rec.Body)
			}
		}
		for _, id := range ids {
			// Router.Wait covers in-process shards only; reportOf follows
			// each session's event stream, on its shard if remote.
			reportOf(b, h, id)
		}
		b.StopTimer()
		r.Close()
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
		b.StartTimer()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*batchSize)/sec, "sessions/sec")
	}
}

// waitShardReady polls the shard subprocess's ping endpoint until it
// answers, so process boot never lands inside a timed section.
func waitShardReady(b *testing.B, addr string) {
	b.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/shard/ping")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			b.Fatalf("shard subprocess on %s never became ready", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkStoreRestore measures crash-recovery speed: a data directory is
// seeded once with completed sessions, then each iteration boots a fresh
// manager from it (replay + service rebuild + bag resubmission + re-run +
// snapshot compaction). The custom metric is sessions restored per second — the
// boot-time cost of durability.
func BenchmarkStoreRestore(b *testing.B) {
	const sessions = 16
	dir := b.TempDir()
	seed, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	seed.SetSync(false)
	m := NewManager(runtime.GOMAXPROCS(0))
	if err := m.Restore(seed); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		s, err := m.Create("", testConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(s); err != nil {
			b.Fatal(err)
		}
	}
	m.Wait()
	if err := m.CompactStore(); err != nil {
		b.Fatal(err)
	}
	m.Close()
	seed.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		mgr := NewManager(runtime.GOMAXPROCS(0))
		if err := mgr.Restore(st); err != nil {
			b.Fatal(err)
		}
		if n := len(mgr.List()); n != sessions {
			b.Fatalf("restored %d sessions, want %d", n, sessions)
		}
		// Close the manager as well as the store: Restore starts the
		// background maintenance goroutine, which pins the manager (and its
		// restored sessions) until Close. Leaking b.N managers here would
		// poison every benchmark that runs later in the same process.
		mgr.Close()
		st.Close()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*sessions)/sec, "sessions_restored/sec")
	}
}

// BenchmarkStoreRestoreSharded measures shard-parallel boot: the same 16
// completed sessions as BenchmarkStoreRestore, but spread over four shard
// stores, so each iteration's replay + rebuild + compaction runs four-way
// concurrent (Router.Restore parses stores and rebuilds shards on separate
// goroutines). Compare sessions_restored/sec against BenchmarkStoreRestore
// for the restore-time win of sharding.
func BenchmarkStoreRestoreSharded(b *testing.B) {
	const (
		sessions = 16
		nshards  = 4
	)
	root := b.TempDir()
	openAll := func(sync bool) []Store {
		stores := make([]Store, nshards)
		for i := range stores {
			dir := store.ShardDir(root, i)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				b.Fatal(err)
			}
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			st.SetSync(sync)
			stores[i] = st
		}
		return stores
	}
	closeAll := func(stores []Store) {
		for _, st := range stores {
			st.(*store.Log).Close()
		}
	}

	seed := openAll(false)
	r := NewRouter(nshards, runtime.GOMAXPROCS(0))
	if err := r.Restore(seed); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		s, err := r.Create("", testConfig(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.SubmitBag(BagRequest{App: "shapes", Jobs: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		if err := r.Run(s); err != nil {
			b.Fatal(err)
		}
	}
	r.Wait()
	r.Close()
	closeAll(seed)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stores := openAll(true)
		r := NewRouter(nshards, runtime.GOMAXPROCS(0))
		if err := r.Restore(stores); err != nil {
			b.Fatal(err)
		}
		if n := len(r.List()); n != sessions {
			b.Fatalf("restored %d sessions, want %d", n, sessions)
		}
		r.Close()
		closeAll(stores)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*sessions)/sec, "sessions_restored/sec")
	}
}

// benchSSEFanout measures the progress broadcast hub: one publisher fanning
// snapshots out to K live subscribers with latest-wins delivery. The custom
// metric counts publish-side channel offers per second — under latest-wins
// semantics an offer may replace an unconsumed snapshot rather than add a
// delivery, so this is fan-out (publish) throughput, not per-subscriber
// receive throughput.
func benchSSEFanout(b *testing.B, subscribers int) {
	mgr := NewManager(1)
	s, err := mgr.Create("fanout", testConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		ch, unsubscribe := s.Subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer unsubscribe()
			for {
				select {
				case <-ch:
				case <-stop:
					return
				}
			}
		}()
	}
	snap := batch.Snapshot{Progress: batch.Progress{JobsTotal: 1000, JobsDone: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Progress.EngineSteps = int64(i)
		s.publishSnapshot(snap)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*subscribers)/sec, "offers/sec")
	}
}

func BenchmarkSSEFanout1(b *testing.B)   { benchSSEFanout(b, 1) }
func BenchmarkSSEFanout16(b *testing.B)  { benchSSEFanout(b, 16) }
func BenchmarkSSEFanout256(b *testing.B) { benchSSEFanout(b, 256) }

// BenchmarkColdSweep measures the service's dominant cold path: a 3x3x2
// scenario sweep (18 sessions) against an empty schedule cache, with DP
// checkpointing on. Every cell shares one (model, delta, step), so the
// planner singleflight collapses the 18 cold solves into one build that all
// cells join — dp_solves/op reports how many DP builds actually ran per
// sweep (kept near 1 by dedup; >1 only when incremental growth extends the
// table for a longer job mid-run), and dp_dedup_waits/op how many cells
// joined an in-flight build instead of re-solving.
func BenchmarkColdSweep(b *testing.B) {
	req := SweepRequest{
		VMTypes:         []string{"n1-highcpu-4", "n1-highcpu-8", "n1-highcpu-16"},
		Zones:           []string{"us-central1-c", "us-west1-a", "us-east1-b"},
		Policies:        []string{PolicyReuse, PolicyMemoryless},
		VMs:             16,
		CheckpointDelta: 0.05,
		CheckpointStep:  1.0 / 60,
		Seed:            1,
		Model:           &ModelParams{A: 0.45, Tau1: 1.0, Tau2: 0.8, B: 24, L: 24},
		// Jitter spreads job lengths so cells also exercise the planner's
		// incremental table growth, not just the initial solve.
		Bag: BagRequest{App: "shapes", Jobs: 4, Jitter: 0.3, Seed: 1},
	}
	var solves, dedup uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.ResetSharedCache()
		mgr := NewManager(runtime.GOMAXPROCS(0))
		rep, err := mgr.Sweep(req)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rep.Cells {
			if c.Error != "" {
				b.Fatalf("cell %s/%s/%s: %s", c.VMType, c.Zone, c.Policy, c.Error)
			}
		}
		for _, k := range policy.SharedPlannerSolveStats() {
			solves += k.Solves
			dedup += k.DedupWaits
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(solves)/float64(b.N), "dp_solves/op")
		b.ReportMetric(float64(dedup)/float64(b.N), "dp_dedup_waits/op")
	}
}
