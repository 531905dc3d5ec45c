// Command batchsvc runs the multi-session batch computing service with its
// HTTP JSON API over the simulated cloud — the paper's Section 5 prototype
// grown into a front door that serves many concurrent scenario sessions.
//
// Usage:
//
//	batchsvc [-addr :8080] [-shards N] [-parallelism N] [-planner-parallelism N]
//	         [-data-dir DIR] [-schedule-cache-cap N] [-pprof PORT]
//	         [-compact-bytes N] [-max-sessions N] [-queue-depth N]
//	         [-degraded-probe-interval D] [-shutdown-timeout D]
//	         [-log-format text|json] [-trace-buffer N]
//	         [-distribute] [-shard-port-base P]
//	batchsvc -shard-server ADDR [-shard-index N] [-data-dir DIR] ...
//
// Each session carries its own configuration, so one process serves any
// mix of VM types, zones, policies, and seeds:
//
//	curl -X POST localhost:8080/api/sessions -d '{
//	  "name": "demo",
//	  "config": {"vm_type": "n1-highcpu-16", "zone": "us-east1-b", "vms": 8,
//	             "seed": 1, "fit": {"samples": 2000, "seed": 42}}}'
//	curl -X POST localhost:8080/api/sessions/s-001/bags -d '{"app":"nanoconfinement","jobs":100,"seed":1}'
//	curl -X POST localhost:8080/api/sessions/s-001/run
//	curl localhost:8080/api/sessions/s-001          # status + live progress
//	curl -N localhost:8080/api/sessions/s-001/events # SSE progress stream
//	curl localhost:8080/api/sessions/s-001/report   # once done
//	curl -X DELETE localhost:8080/api/sessions/s-001 # cancels if running
//
// The /api/models endpoints expose the online model registry: versioned
// preemption models that learn from observed lifetimes. Register one (here
// via the tracegen | fitmodel pipeline), point sessions at it with
// "model_ref", and feed it observations; when the drift detector flags a
// change point, a refit publishes the next version while sessions pinned
// at older versions stay byte-identical:
//
//	tracegen -n 20 | fitmodel -i - -json | curl -X POST localhost:8080/api/models -d @-
//	curl -X POST localhost:8080/api/sessions -d '{
//	  "config": {"vm_type": "n1-highcpu-16", "zone": "us-east1-b", "vms": 8,
//	             "seed": 1, "model_ref": "n1-highcpu-16-us-east1-b@latest"}}'
//	curl -X POST localhost:8080/api/models/n1-highcpu-16-us-east1-b/observations \
//	  -d '{"lifetimes": [0.5, 2.25, 23.1]}'
//	curl -X POST localhost:8080/api/models/n1-highcpu-16-us-east1-b/refit
//
// With -data-dir, the session lifecycle is durable: configs, bags, run
// starts, cancels, deletes, and the model registry (versions, observation
// high-water marks, detector state) are written to a snapshot+WAL store,
// and a restart recomputes every session — and restores the registry —
// exactly where it was (a session that was mid-run is re-run from its
// inputs, so it comes back as an uncrashed run would have finished).
//
// POST /api/sweep fans a scenario grid (VM types x zones x policies,
// optionally x model_refs) out across sessions and aggregates the
// comparison. SIGINT/SIGTERM drain in-flight runs for -shutdown-timeout
// before exiting; a second signal forces immediate exit.
//
// The store keeps one WAL file and compacts it in the background once it
// crosses -compact-bytes, so long-lived processes bound both replay time
// and disk usage. If the disk fails persistently, the service degrades to
// read-only — mutating endpoints return 503 with Retry-After and
// /api/stats reports the degraded health — and recovers automatically when
// writes succeed again.
// -max-sessions and -queue-depth bound admission (429 when saturated).
//
// -shards N splits the service into N session-executor shards behind a
// stateless router: each shard owns its own session map, worker pool, and
// (with -data-dir) its own WAL at DIR (shard 0) and DIR/shard-00i, so
// fsyncs and degraded-mode faults are per shard. Sessions are placed by
// consistent hash on their id; reports are byte-identical at any shard
// count, and changing N between boots migrates only the minimal fraction
// of sessions at restore.
//
// -distribute takes the shard boundary across processes: shard 0 (the
// control plane) stays in this process, and shards 1..N-1 run as
// supervised subprocesses (`batchsvc -shard-server`), each with its own
// WAL under DIR/shard-00i. This process binds shard i's socket on
// 127.0.0.1:(-shard-port-base + i) once and hands it to every
// incarnation of the child (fd 3, LISTEN_FDS=1), so a shard is ready as
// soon as it serves and requests sent while it restarts wait for it
// instead of being refused. Start-up overlaps the processes: this one
// binds -addr first (a taken port fails the boot before any child
// exists), spawns the children without waiting, builds its topology,
// replays its local WALs and builds the API while they boot, and serves
// once every child has answered its readiness ping and the boot id sync.
// A client connecting meanwhile waits in the listen backlog rather than
// being refused. The supervisor health-checks each shard and
// restarts it if it crashes or hangs — WAL replay makes the restart safe
// — while the router wraps every cross-process call in deadlines,
// retries, and a per-shard circuit breaker. Model references are resolved once, on the control plane in
// this process, and each create carries the pinned version's parameters
// to its shard. A dead shard degrades its own sessions to
// 503 (Retry-After set) and listings/stats/sweeps to partial results; the
// other shards keep serving. See the README's "Distributed operation &
// failure domains".
//
// -shard-server ADDR runs one such executor shard by hand (or under an
// external process manager) serving the shard protocol on ADDR; point the
// router process at it by running it with the same topology. With
// LISTEN_FDS=1 in its environment it serves the socket on fd 3 instead,
// as the supervisor starts it.
//
// The public listener and the -shard-server listener are served by
// serve.Server, one HTTP/1.1 loop per keep-alive connection that answers
// clients byte for byte as net/http.Server does (Date aside) at less CPU
// per request; only the -pprof debug listener runs net/http.Server.
//
// Observability: GET /metrics renders every counter, gauge, and latency
// histogram (per-shard sessions, queue depth, WAL and DP-solve latency,
// breaker states) in Prometheus text format, on the public
// listener and on the -pprof loopback mux; shard processes serve their own.
// Every API request carries an X-Trace-Id (honored inbound, minted
// otherwise) whose spans — edge, routing, shard execution, WAL persists —
// are retrievable at GET /api/trace/{id}, merged across shard processes;
// -trace-buffer sizes the in-memory span ring. All logs are structured
// (log/slog) with component/shard/session fields; -log-format picks
// text or JSON lines, and -distribute forwards both flags to the shard
// subprocesses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/store"
)

// fatal logs one structured error line and exits.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	parallelism := flag.Int("parallelism", runtime.GOMAXPROCS(0),
		"max session simulations running concurrently")
	plannerParallelism := flag.Int("planner-parallelism", 0,
		"row-parallel worker count for cold DP checkpoint solves, process-wide (0: GOMAXPROCS)")
	dataDir := flag.String("data-dir", "",
		"directory for the session snapshot+WAL store (empty: in-memory only)")
	cacheCap := flag.Int("schedule-cache-cap", policy.DefaultSharedCacheCapacity,
		"LRU bound (entries per artifact kind) of the process-wide schedule cache")
	pprofPort := flag.Int("pprof", 0,
		"localhost port for the net/http/pprof profiling server (0: disabled)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 15*time.Second,
		"graceful-drain window for HTTP shutdown, in-flight sessions, and shard "+
			"subprocesses; a second SIGINT/SIGTERM forces immediate exit")
	compactBytes := flag.Int64("compact-bytes", 256<<20,
		"background-compact the store once the WAL crosses this size (0: boot-only compaction)")
	maxSessions := flag.Int("max-sessions", 0,
		"bound on live sessions; further creates get 429 (0: unbounded)")
	queueDepth := flag.Int("queue-depth", 0,
		"bound on runs queued beyond the worker pool; further runs get 429 (0: unbounded)")
	probeInterval := flag.Duration("degraded-probe-interval", time.Second,
		"how often a degraded (read-only) service retries the store")
	shards := flag.Int("shards", 1,
		"session-executor shards; each owns its sessions, worker pool, and "+
			"(with -data-dir) its own WAL under DIR/shard-00N; sessions are "+
			"placed by consistent hash, so the count can change between boots")
	distribute := flag.Bool("distribute", false,
		"run shards 1..N-1 as supervised subprocesses (shard 0 stays in-process "+
			"as the control plane); requires -shards > 1")
	shardPortBase := flag.Int("shard-port-base", 18080,
		"with -distribute, shard i listens on 127.0.0.1:(base+i)")
	shardServer := flag.String("shard-server", "",
		"run as a single shard-executor server on this address (serving the shard "+
			"protocol for a -distribute router) instead of the public API")
	shardIndex := flag.Int("shard-index", 0,
		"with -shard-server, which router slot this shard serves (diagnostics only)")
	logFormat := flag.String("log-format", "text",
		"structured log encoding: text (logfmt-style) or json")
	traceBuffer := flag.Int("trace-buffer", obs.DefaultTraceBuffer,
		"capacity of the in-memory trace span ring (oldest spans drop past it)")
	flag.Parse()
	if err := obs.InitLog(*logFormat, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "batchsvc: %v\n", err)
		os.Exit(1)
	}
	// The ring is allocated as spans arrive, so sizing it costs nothing here.
	obs.DefaultTracer().SetCapacity(*traceBuffer)
	logger := obs.Logger("batchsvc")
	if *shards < 1 {
		fatal(logger, "-shards must be at least 1", "shards", *shards)
	}
	if *distribute && *shards < 2 {
		fatal(logger, "-distribute needs -shards of at least 2", "shards", *shards)
	}

	storeOpts := store.Options{CompactAtBytes: *compactBytes}
	openShard := func(dir string) (*store.Log, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return store.OpenOptions(dir, storeOpts)
	}

	if *shardServer != "" {
		policy.SetSharedCacheCapacity(*cacheCap)
		policy.SetDefaultPlannerParallelism(*plannerParallelism)
		servePprof(logger, *pprofPort)
		runShardServer(shardServerConfig{
			addr:            *shardServer,
			index:           *shardIndex,
			parallelism:     *parallelism,
			dataDir:         *dataDir,
			maxSessions:     *maxSessions,
			queueDepth:      *queueDepth,
			probeInterval:   *probeInterval,
			shutdownTimeout: *shutdownTimeout,
			openShard:       openShard,
		})
		return
	}

	// The public socket is bound before anything else, so a taken -addr
	// fails the boot before any shard is spawned or WAL replayed, and a
	// client that connects while the service boots waits in the backlog
	// instead of being refused.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listening failed", "addr", *addr, "err", err)
	}
	// Signals are caught from here on: one that arrives while the service
	// boots is handled once it serves, by the same drain that reaps the
	// shard processes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Build the shard topology: all-local by default; with -distribute,
	// shards 1..N-1 live behind loopback addresses owned by the supervisor,
	// which spawns them now and lets them boot while this process builds
	// its own state.
	topology := make([]string, *shards)
	var sup *serve.Supervisor
	// fail is fatal for a boot that may have spawned shard processes: it
	// reaps them first, so none outlives this process holding its port.
	fail := func(msg string, args ...any) {
		if sup != nil {
			sup.Kill()
		}
		fatal(logger, msg, args...)
	}
	if *distribute {
		for i := 1; i < *shards; i++ {
			topology[i] = fmt.Sprintf("127.0.0.1:%d", *shardPortBase+i)
		}
		perParallelism := (*parallelism + *shards - 1) / *shards
		perCap := func(n int) int {
			if n <= 0 {
				return 0
			}
			return (n + *shards - 1) / *shards
		}
		self, err := os.Executable()
		if err != nil {
			fatal(logger, "resolving own binary for shard spawn failed", "err", err)
		}
		spawn := func(j int, shardAddr string) *exec.Cmd {
			shard := j + 1 // supervisor slot j supervises router shard j+1
			args := []string{
				"-shard-server", shardAddr,
				"-shard-index", strconv.Itoa(shard),
				"-parallelism", strconv.Itoa(perParallelism),
				"-planner-parallelism", strconv.Itoa(*plannerParallelism),
				"-schedule-cache-cap", strconv.Itoa(*cacheCap),
				"-max-sessions", strconv.Itoa(perCap(*maxSessions)),
				"-queue-depth", strconv.Itoa(perCap(*queueDepth)),
				"-degraded-probe-interval", probeInterval.String(),
				"-shutdown-timeout", shutdownTimeout.String(),
				"-compact-bytes", strconv.FormatInt(*compactBytes, 10),
				"-log-format", *logFormat,
				"-trace-buffer", strconv.Itoa(*traceBuffer),
			}
			if *dataDir != "" {
				args = append(args, "-data-dir", store.ShardDir(*dataDir, shard))
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			return cmd
		}
		sup = serve.NewSupervisor(topology[1:], spawn, nil)
		if err := sup.Spawn(); err != nil {
			fatal(logger, "starting shard processes failed", "err", err)
		}
	}

	policy.SetSharedCacheCapacity(*cacheCap)
	policy.SetDefaultPlannerParallelism(*plannerParallelism)
	servePprof(logger, *pprofPort)
	mgr, err := serve.NewRouterTopology(topology, *parallelism, nil)
	if err != nil {
		fail("building shard topology failed", "err", err)
	}
	mgr.SetMaxSessions(*maxSessions)
	mgr.SetQueueDepth(*queueDepth)
	mgr.SetProbeInterval(*probeInterval)
	if *dataDir != "" {
		stores := make([]serve.Store, *shards)
		for i := range stores {
			if topology[i] != "" {
				// A remote shard replays its own WAL in its own process.
				continue
			}
			dir := store.ShardDir(*dataDir, i)
			st, err := openShard(dir)
			if err != nil {
				fail("opening store failed", "dir", dir, "err", err)
			}
			defer st.Close()
			stores[i] = st
		}
		// Shard dirs beyond the configured count belong to a previous boot
		// with more shards: their sessions are re-homed into the live shards
		// and the stores drained, so shrinking -shards loses nothing. Sessions
		// can only be re-homed into local shards, so a distributed boot
		// refuses the migration rather than doing it half-way.
		extraIdx, err := store.FindShardDirs(*dataDir)
		if err != nil {
			fail("scanning shard dirs failed", "err", err)
		}
		var extras []serve.Store
		for _, i := range extraIdx {
			if i < *shards {
				continue
			}
			if *distribute {
				fail("data dir holds shard dirs beyond the configured count; "+
					"boot all-local (without -distribute) once to migrate the topology change",
					"data_dir", *dataDir, "shards", *shards)
			}
			dir := store.ShardDir(*dataDir, i)
			st, err := openShard(dir)
			if err != nil {
				fail("opening store failed", "dir", dir, "err", err)
			}
			defer st.Close()
			extras = append(extras, st)
		}
		if err := mgr.Restore(stores, extras...); err != nil {
			fail("restoring sessions failed", "err", err)
		}
		if n := len(mgr.List()); n > 0 {
			logger.Info("restored sessions", "count", n, "data_dir", *dataDir, "shards", *shards)
		}
	}
	defer mgr.Close()
	// Every request context derives from connCtx, so cancelling it before
	// Shutdown releases long-lived SSE streams — otherwise Shutdown would
	// wait out its full timeout on any connected events client.
	connCtx, closeConns := context.WithCancel(context.Background())
	defer closeConns()
	// The public mux: the API surface plus the metrics exposition. /metrics
	// sits outside the /api instrumentation so scrapes never perturb the
	// request latency series they read.
	publicMux := http.NewServeMux()
	publicMux.Handle("/", serve.NewAPI(mgr).Handler())
	publicMux.Handle("GET /metrics", obs.Default().Handler())
	srv := &serve.Server{
		Handler:     publicMux,
		BaseContext: func(net.Listener) context.Context { return connCtx },
	}

	if sup != nil {
		// Adopt the shards' restored id high-water marks before serving, so
		// ids keep creation order across a restart. The sync waits in
		// each shard's socket backlog until the shard serves, alongside the
		// supervisor's readiness pings; Ready fails at once if a shard exits
		// before serving, and the sync still waiting on it dies with us.
		synced := make(chan struct{})
		go func() {
			mgr.SyncRemotes()
			close(synced)
		}()
		if err := sup.Ready(); err != nil {
			fatal(logger, "starting shard processes failed", "err", err)
		}
		<-synced
		logger.Info("supervising shard processes", "count", *shards-1,
			"port_first", *shardPortBase+1, "port_last", *shardPortBase+*shards-1)
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", ln.Addr().String(), "shards", *shards, "parallelism", *parallelism)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		fail("server failed", "err", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down; draining in-flight sessions (signal again to force exit)",
		"drain_timeout", shutdownTimeout.String())
	// A second signal aborts the drain. stop() releases NotifyContext's
	// registration; our own watcher takes over so the forced path is
	// explicit and logged rather than the runtime's default kill.
	stop()
	force := make(chan os.Signal, 1)
	signal.Notify(force, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-force
		logger.Warn("second signal; forcing exit")
		if sup != nil {
			// Reap the shard fleet before dying: a forced exit must not leave
			// orphaned shard processes holding their ports.
			sup.Kill()
		}
		os.Exit(1)
	}()
	closeConns() // end SSE streams so Shutdown isn't pinned by them
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown failed", "err", err)
	}
	// Let running simulations finish before exiting. A session still
	// running when the drain window closes is re-run from its logged
	// inputs on the next boot.
	done := make(chan struct{})
	go func() { mgr.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(*shutdownTimeout):
		logger.Warn("sessions still running past drain window; exiting anyway",
			"drain_timeout", shutdownTimeout.String())
	}
	if sup != nil {
		// Shard processes drain last: their own SIGTERM handlers run the same
		// graceful path this process just finished, and the supervisor reaps
		// every child (killing stragglers past the window) so no zombies and
		// no orphaned listeners survive this exit.
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *shutdownTimeout)
		sup.Stop(drainCtx)
		cancelDrain()
	}
	logger.Info("bye")
}

// servePprof serves net/http/pprof and /metrics on 127.0.0.1:port in the
// background; port 0 disables it. Profiling stays off the public listener:
// its own mux on a loopback-only port, so deployments never expose
// /debug/pprof by accident.
func servePprof(logger *slog.Logger, port int) {
	if port <= 0 {
		return
	}
	pprofAddr := fmt.Sprintf("127.0.0.1:%d", port)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Metrics ride the same loopback mux, so a deployment that keeps the
	// public listener lean can still be scraped via the -pprof port.
	mux.Handle("GET /metrics", obs.Default().Handler())
	go func() {
		logger.Info("pprof listening", "url", fmt.Sprintf("http://%s/debug/pprof/", pprofAddr))
		if err := http.ListenAndServe(pprofAddr, mux); err != nil {
			logger.Error("pprof server failed", "err", err)
		}
	}()
}

// shardServerConfig carries the -shard-server flag set.
type shardServerConfig struct {
	addr            string
	index           int
	parallelism     int
	dataDir         string
	maxSessions     int
	queueDepth      int
	probeInterval   time.Duration
	shutdownTimeout time.Duration
	openShard       func(dir string) (*store.Log, error)
}

// runShardServer is the -shard-server mode: one executor shard (a Manager
// that takes model references already resolved, with their parameters,
// from the control plane) serving the shard protocol, with the same
// durable store and graceful-drain behavior as the full service. The
// router process supervises this one; WAL replay on restart makes a crash
// here a contained fault, not a data loss.
func runShardServer(cfg shardServerConfig) {
	logger := obs.Logger("batchsvc").With("shard", cfg.index)
	m := serve.NewShardManager(cfg.parallelism)
	m.SetShardIndex(cfg.index)
	m.SetMaxSessions(cfg.maxSessions)
	m.SetQueueDepth(cfg.queueDepth)
	m.SetProbeInterval(cfg.probeInterval)
	if cfg.dataDir != "" {
		st, err := cfg.openShard(cfg.dataDir)
		if err != nil {
			fatal(logger, "opening store failed", "dir", cfg.dataDir, "err", err)
		}
		defer st.Close()
		if err := m.Restore(st); err != nil {
			fatal(logger, "restoring sessions failed", "err", err)
		}
		if n := len(m.List()); n > 0 {
			logger.Info("restored sessions", "count", n, "data_dir", cfg.dataDir)
		}
	}
	defer m.Close()
	ln, err := serve.ShardListener(cfg.addr)
	if err != nil {
		fatal(logger, "shard listener failed", "err", err)
	}
	connCtx, closeConns := context.WithCancel(context.Background())
	defer closeConns()
	srv := &serve.Server{
		Handler:     serve.ShardHandler(m),
		BaseContext: func(net.Listener) context.Context { return connCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving shard protocol", "addr", ln.Addr().String(), "parallelism", cfg.parallelism)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		fatal(logger, "shard server failed", "err", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain_timeout", cfg.shutdownTimeout.String())
	stop()
	closeConns()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown failed", "err", err)
	}
	done := make(chan struct{})
	go func() { m.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.shutdownTimeout):
		logger.Warn("sessions still running past drain window; exiting anyway",
			"drain_timeout", cfg.shutdownTimeout.String())
	}
	logger.Info("bye")
}
