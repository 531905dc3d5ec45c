// Package serve is the multi-session front end of the batch computing
// service: it runs many independent internal/batch simulations as named
// sessions in one process and exposes them over a session-scoped HTTP JSON
// API (the production-shaped evolution of the paper's Section 5 prototype,
// which served exactly one configuration at a time).
//
// The package splits into two layers. A Manager is one session-executor
// shard: it owns a session map, a bounded worker pool, a persistence gate,
// and (optionally) a store — a single Manager is also a complete unsharded
// service. A Router is the thin stateless layer above N shard slots: it
// mints globally-sequential session ids, places each session on a shard by
// consistent hash on its id, scatter-gathers the cross-shard reads, and
// resolves every session's model reference on the control plane's
// registry before handing the create to its shard. A slot is either a
// Manager in the router's own process or a RemoteBackend speaking the
// shard protocol to a Manager in another process — the router cannot tell
// the difference. Manager and Router are the two implementations of the
// Backend interface that API serves, so the HTTP layer is identical at any
// shard count and any local/remote mix. Manager stays a Backend because
// every shard process serves the public /api surface over its own Manager
// (ShardHandler), and that surface is the shard protocol a RemoteBackend
// speaks for bags, run, report and events. A RemoteBackend is only a slot:
// it is never served by API itself.
//
// # Sessions
//
// A session is one simulated service deployment: a validated, serializable
// SessionConfig snapshot plus the batch.Service built from it. Sessions
// move through the lifecycle
//
//	created ──run──> running ──┬──> done       (report available)
//	                           ├──> failed     (error retained)
//	                           └──> cancelled  (DELETE or POST .../cancel
//	                                            mid-run; partial report
//	                                            discarded deterministically)
//
// Bags are submitted while a session is created; POST .../run starts the
// simulation asynchronously on a bounded worker pool and returns
// immediately. A context.Context is threaded from the manager through
// batch.Service.Run into the engine's event loop, so cancelling a running
// session (DELETE, or POST .../cancel) stops the simulation within one
// progress interval and frees its worker slot. Sessions are fully isolated
// — each owns its engine, provider, and cluster, and draws randomness only
// from its own seed — so a session's report is byte-identical whether it
// runs alone or alongside any number of concurrent sessions.
//
// While running, the session publishes a progress snapshot (with
// per-job-class summaries) at the run's start and end and every
// ProgressEvery engine steps; a snapshot carries the per-job statuses and
// live VMs only when a GET .../jobs or .../vms asked since the last one,
// and that request waits for it instead of conflicting with the run. GET
// .../events streams the progress as Server-Sent Events so clients do not
// busy-poll.
//
// The expensive derived artifacts (DP checkpoint planners, reuse
// schedulers) are NOT per-session: they come from the process-wide schedule
// cache in internal/policy, keyed by (model identity, delta, step) and
// bounded by an LRU, so the O(T^3) checkpoint solve for a given model
// happens once per process. Fitted model registries are likewise cached
// per (vm type, zone, samples, seed).
//
// # Online models
//
// The manager also owns an online model registry (internal/registry):
// named, versioned preemption models with provenance, fed by observation
// streams. POST /api/models registers an entry (explicit bathtub
// parameters or a fit recipe); POST /api/models/{name}/observations
// batch-ingests observed lifetimes into the entry's change-point detector;
// once drift is flagged and enough post-flag observations accumulate, POST
// /api/models/{name}/refit — or the background auto-refit worker — fits a
// new model to them and publishes it as the next version.
//
// Sessions opt in with SessionConfig.ModelRef ("name", "name@latest", or
// "name@vN"), resolved against the registry at create time and pinned to
// the concrete version: the session's status and durable record carry the
// "name@vN" form, so a later refit moves "@latest" for new sessions while
// existing sessions' reports stay byte-identical and replayable. Sweep
// cells take per-cell refs via SweepRequest.ModelRefs (an extra, innermost
// grid dimension), so one sweep can compare "@latest" against a pinned
// older version. Because the schedule cache keys on model parameters, two
// versions with identical parameters share planners and schedulers, while
// a refit's new parameters get their own.
//
// With a store attached, every registry mutation is durably logged before
// it is applied (creation with its fitted version-1 provenance, each
// ingested observation batch, each published version), so a restart
// replays the registry to the exact pre-crash state — including the
// detector's high-water mark and partially filled window. Boot-time
// compaction collapses each entry to a single state record; the
// observation history itself is not retained across compactions, only the
// detector state it produced.
//
// # Sharding
//
// NewRouter(n, parallelism) builds n Manager shards behind one Router.
// Sessions are placed by jump consistent hash on the session id
// (internal/placement): placement depends only on (id, n), so it is stable
// across restarts, and changing n moves only the minimal fraction of
// sessions — growing moves keys only onto the new shards, never between
// surviving ones. Ids are minted from a single global sequence, so the same
// create sequence yields the same ids — and byte-identical reports — at any
// shard count.
//
// The model registry stays a single control plane on shard 0, and a model
// reference is resolved there exactly once: Router.CreateCtx and
// Router.SweepCtx (for every cell) pin it to "name@vN" on the control
// plane's registry and
// hand the owning shard that version's parameters with the create. A
// pinned version's parameters never change, so that is all a shard needs:
// no shard keeps a copy of the registry, nothing is replicated, and a
// shard that was unreachable when a model was registered can run sessions
// on it the moment it answers again. The shard's durable create record
// keeps the parameters, so a restarted shard rebuilds its pinned sessions
// from its own log. Model registration and refit go through the control
// plane too; a shard process refuses POST /api/models with 409.
//
// Cross-shard reads scatter-gather: GET /api/sessions merges per-shard
// listings back into global id order, POST /api/sweep mints its cells' ids
// in grid order, runs each home shard's cells as one group (all groups at
// once) and aggregates in grid order, and GET /api/stats sums
// per-shard counters under backward-compatible top-level keys while adding
// a per-shard breakdown in a "shards" array. Scatter-gather is partial by
// design: an unreachable shard removes only its own rows — the listing and
// stats responses mark themselves "partial": true and carry one error entry
// per failed shard (with its breaker state), sweeps record per-cell errors
// and set SweepReport.Partial, and the aggregate health degrades naming the
// shard, so one dead shard narrows answers instead of failing them.
//
// # Remote shards
//
// NewRouterTopology generalizes NewRouter: each topology slot is "" for an
// in-process Manager or an address for a remote shard — a Manager in
// another process serving ShardHandler (what `batchsvc -shard-server`
// runs). Slot 0 is always local, because it hosts the control plane. The
// shard protocol is the public /api surface itself — every forwarded
// session request hits exactly the handler a client would — plus a small
// /shard namespace for what the public API deliberately lacks: POST
// /shard/sessions (a create under a router-minted id, with a model_ref's
// pinned parameters), POST /shard/sweep (a sweep group, run to
// completion), GET /shard/ping (liveness) and GET /shard/info (counters,
// health, id high-water mark). A shard owns its id space: it admits a
// create or sweep group only above its id high-water mark, which it
// raises, and answers anything else 409 with the mark (id_seq); the
// router adopts it and retries under fresh ids.
//
// A RemoteBackend fills each remote slot: it creates, lists, fetches info
// and traces, runs sweep groups and forwards requests, and no more —
// model operations go to the control plane on slot 0, and /api/stats is
// aggregated by the router from every slot's info snapshot. It wraps each
// call with the failure discipline the in-process path never needed.
// Every operation carries a per-op deadline. Reads (listing, info, trace
// fetches, forwarded GETs, event-stream connects) retry transient transport failures with exponential backoff
// plus jitter; creates, sweep groups, runs, cancels,
// deletes and other mutations never retry — the caller gets an immediate
// 503 with Retry-After and decides. Each attempt carries its deadline, and
// the shard refuses to start a request that reaches it past that deadline
// (a request that waited in a restarting shard's socket backlog), so a
// mutation answered 503 is never applied afterwards. A per-shard circuit breaker trips open after a
// run of consecutive transport failures, fails calls fast without touching
// the network while open, and re-admits one probe after a cooldown
// (half-open) — success closes it, failure re-opens it. Only transport
// failures count: an HTTP error status is the shard alive and answering,
// passed through verbatim and never retried. All of this is exercised
// under injected faults via internal/faultnet, the network seam mirroring
// internal/faultfs.
//
// Every edge request on a remote-homed session costs exactly one shard
// round trip. The session-scoped routes (GET and DELETE
// /api/sessions/{id} and its bags, estimate, run, cancel, events, report,
// jobs and vms) ask the backend for the session's home by placement alone
// — no lookup, no state — and when that shard is remote the router
// forwards the request as-is: same method, path, body and X-Trace-Id, one
// client-side remote span, the shard's status, headers and body copied
// back. The shard's answer is the verdict — a 404 for a session deleted
// behind the router, a 409, a 503 — so the router keeps no per-session
// state for remote sessions. A forwarded GET retries like any read; a
// forwarded mutation does not. A unary reply stays under the per-op
// deadline until its body is copied; GET /api/sessions/{id}/events is the
// shard's own SSE stream, flushed as its frames arrive, and its deadline
// covers only the wait for the headers. An unreachable shard gets 503 +
// Retry-After, the open breaker's fast path included.
//
// A *Session never makes a network call. A remote-homed create returns a
// receipt: the id and the status the shard answered, which Status
// returns; Done is closed, and every method that needs the simulation
// refuses with 501, as Router.Get, Run, Delete and Cancel do for a
// remote-homed id. Listings are statuses, not sessions.
//
// A sweep is a scatter-gather: the router mints the cells' ids in grid
// order (so its report is byte-identical on every topology), runs a local
// shard's cells on its Manager, and sends a remote shard's cells and the
// bag as one POST /shard/sweep under the sweep's context and X-Trace-Id.
// The shard answers once the runs are over; the per-op deadline covers
// only the wait for its headers, which it sends once the cells have
// started. Router.Wait waits for in-process shards only: a shard process
// drains its own runs on the SIGTERM Supervisor.Stop sends.
//
// Round trips reuse connections. The default client of each RemoteBackend
// and of the Supervisor runs on its own shard transport (transport.go),
// which makes each exchange on the calling goroutine: it takes an idle
// keep-alive connection for the shard (or dials one under the request's
// context), writes the request, and reads the reply from the connection's
// buffered reader — no per-connection read and write loops, so no thread
// handoff per hop. A connection goes back to the idle stack, capped at
// maxIdlePerShard per address, only when its reply body was read to EOF
// with nothing buffered behind it, neither side asked to close, and the
// request's context had not fired; its deadline, a caller's cancel and a
// forwarded stream's end close it through context.AfterFunc. Before an idle
// connection is reused, a non-blocking MSG_PEEK read (peek, which
// Server's context polls share) checks it: EOF (the shard closed it, or
// restarted), stray bytes or an error discard it. A
// request is never resent once a connection was handed out for it — it
// may have reached the shard — so mutations still apply at most once, and
// only retry repeats calls, idempotent ones. Since only a reply read to
// EOF returns its connection, every shard reply is drained before its
// body is closed (drainClose), the bodies of run and delete replies
// nobody needs and the supervisor's pings included; a forwarded reply is
// copied to its end. Closing a backend
// closes only its own idle connections. An
// injected RemoteOptions.Client keeps its transport's pool. The
// connection-reuse and transport tests count the connections a shard
// accepts.
//
// In distributed mode (`batchsvc -distribute`), a Supervisor owns the
// shard subprocesses. It binds each shard's listening socket once, in
// Spawn (on port 0 it takes a free port, which Addrs reports), and passes
// it to every incarnation of the shard as fd 3 with LISTEN_FDS=1, as
// systemd socket activation does; the child takes it with ShardListener,
// which binds the -shard-server address itself when run by hand. Spawn
// does not wait for the children: batchsvc builds its router, replays its
// local WALs and builds its API while they boot, then calls Ready. A
// shard is ready at its first answered ping: the ping, sent at spawn,
// waits in the socket's backlog until the child serves, and is dropped at
// once if the child exits first, which fails Ready. The router's boot id
// sync (Router.SyncRemotes) waits in the same backlog, so a distributed
// boot takes about as long as its slowest child, not the router's set-up
// plus the children's. The supervisor health-checks each shard with
// periodic pings, SIGKILLs and respawns (with linear backoff) any that
// exit or stop answering, and on shutdown fans SIGTERM out, reaps every
// child and only then closes the sockets. Process death is a restart,
// not an outage: requests sent meanwhile wait in the backlog for the next
// incarnation (a 503 with Retry-After only past the per-op deadline),
// and the shard's WAL replay (Manager.Restore) brings every session back
// byte-identically.
//
// # Persistence
//
// Attaching a Store (internal/store: a JSON snapshot + append-only WAL) via
// Manager.Restore makes the lifecycle durable. The log holds inputs only:
// session creation, bag submissions, run starts, cancels (with the stop
// point) and deletes. Outcomes are recomputed — the simulation is a pure
// function of the config, the bags and the pinned model — so a restarting
// process replays the log and re-runs every logged run before it serves:
// created sessions come back runnable, run sessions serve byte-identical
// reports, statuses and job listings, sessions that were mid-run when the
// process died recover as whatever their inputs produce (normally done),
// and a cancelled session's replay stops at the progress boundary its
// record names. Logs written before this schema also hold done/failed
// records; replay ignores them. The store is compacted at boot so replay
// cost tracks live state, not history.
//
// A Router takes one store per shard (Router.Restore): shard 0's store is
// the data-dir root itself — the pre-sharding layout, so old data dirs boot
// unchanged — and shard i > 0 lives in root/shard-00i, giving each shard
// its own WAL and fsync stream. Restore parses all stores concurrently,
// replays model records into the control plane, routes each session to
// its hash-placed home shard, and rebuilds shards in parallel. A create
// record written before creates carried their pinned parameters gets them
// once, at boot — from the restored registry on the control plane's
// process, from the replica records of its own log on a shard process —
// and the boot compaction rewrites it with them. If the shard count changed since the
// data was written, sessions re-home automatically: stores are compacted
// from the highest shard index down and leftover stores from a larger
// previous count ("extras") are drained last, an order chosen so a moved
// session is always durable at its new home before the old home drops it —
// a crash mid-migration at worst leaves a duplicate record, resolved at the
// next boot by first-occurrence-wins.
//
// With remote slots, each shard process owns its own store: the router's
// Restore takes nil at remote indices and the shard server replays its WAL
// itself before listening. Shard-count migration needs every store in one
// process, so it requires an all-local boot; a distributed boot whose data
// dir holds sessions homed on remote slots (or leftover extra stores)
// refuses to start rather than silently strand them.
//
// # HTTP API
//
//	POST   /api/sessions                 create a session from a JSON config
//	GET    /api/sessions                 list sessions
//	GET    /api/sessions/{id}            status + latest progress
//	DELETE /api/sessions/{id}            remove (cancels first if running)
//	POST   /api/sessions/{id}/bags      submit a bag of jobs
//	POST   /api/sessions/{id}/estimate  a-priori makespan/cost quote
//	POST   /api/sessions/{id}/run       start asynchronously (202)
//	POST   /api/sessions/{id}/cancel    abort a running session
//	GET    /api/sessions/{id}/events    SSE stream of progress snapshots
//	GET    /api/sessions/{id}/report    final report (404 until done)
//	GET    /api/sessions/{id}/jobs      per-job status (live mid-run)
//	GET    /api/sessions/{id}/vms       VM listing (live mid-run)
//	POST   /api/models                  register a versioned online model
//	GET    /api/models                  list entries + version provenance
//	GET    /api/models/{name}           one entry (versions, detector state)
//	POST   /api/models/{name}/observations  batch-ingest observed lifetimes
//	POST   /api/models/{name}/refit     refit from post-drift observations
//	POST   /api/sweep                   run a scenario grid, aggregate
//	GET    /api/stats                   sessions + models + caches + store + health
//
// All POST bodies are decoded strictly (unknown fields rejected), wrong
// methods yield a JSON 405 (with Allow) and unknown paths a JSON 404,
// both written once by the API's and the shard protocol's mux rather than
// rewritten from net/http's plain-text errors, and every error payload
// carries a stable "error" key.
//
// Wire JSON: a reply is encoding/json's bytes, and encoding/json decides
// every body the lifecycle's parser does not take. The lifecycle's
// replies (a session status with its config, model and progress, a
// report, the bags, run and delete replies, a progress event) and the
// router's shard create body are appended straight into a pooled buffer
// by wirejson.go, byte for byte what json.Encoder.Encode (json.Marshal
// for an event or a shard body) writes for them: field order, omitempty,
// HTML-safe string escapes, invalid UTF-8 as an escaped U+FFFD, escaped
// U+2028 and U+2029, float form, and the same error on a NaN or an
// infinity. A create, bag or shard create body is parsed by hand only
// when it is canonical: one object whose keys are their fields' exact
// tags, none twice, strings without escapes, no null, numbers their Go
// field holds, and nothing after the object but whitespace. Any other
// body is handed to the encoding/json decoder, so every 400 reads as
// before. Every other payload, the WAL's records and the router's reads
// of shard replies stay on encoding/json. FuzzWireEncode and
// FuzzWireDecode hold the codec to encoding/json.
//
// # Serving connections
//
// batchsvc serves its public listener and its -shard-server listener with
// Server (httpserver.go), not net/http.Server; only the -pprof debug
// listener stays on net/http. Server has http.Server's shape (Handler,
// BaseContext, Serve, Shutdown), and runs each keep-alive connection as
// one loop on one goroutine: read a request from the connection's
// buffered reader (request headers capped at net/http's 1 MiB default),
// call the handler, write the reply, read the next request. A reply is
// buffered in a buffer the connection reuses; one that is not flushed and
// stays within 2 KiB goes out as status line, headers, Content-Length and
// body in one write. The first Flush, or a body past 2 KiB while the
// handler runs, switches the reply to chunked framing, at the same bytes
// where net/http switches.
//
// The watcher rule: a client that leaves is seen by a request that
// observes its context, once it flushes or has run watchAfter (1 ms, a
// constant). A request that flushes, or whose r.Context().Done() is
// called (directly, or by a context derived from it as it attaches) and
// that has run watchAfter, gets a watcher goroutine that peeks one byte
// on the connection's buffered reader. An error other than the stop
// deadline cancels r.Context(). A byte that arrives is kept, so a
// pipelined request is served next. The watcher is stopped with a read
// deadline before the next request is read. A request that only polls
// r.Context().Err() (createSession's checks, and through them each cell
// of a shard's sweep group) gets no watcher: once it has run watchAfter
// with its body read, each poll peeks at the socket without waiting, and
// EOF or an error cancels it. A handler that never looks at its context
// (bags, run, report, delete, and most creates) arms no timer and starts
// no goroutine: nothing there could act on a cancellation. net/http
// starts and aborts a background read on every request, which on this
// service's ~1 ms requests cost more CPU than the handlers; a 1 ms timer
// armed for every request still cost about 8% of the CPU per operation
// on lifecycle-local, since each arm or firing wakes an idle P.
//
// Clients see what net/http.Server sends: Date, Content-Type sniffing,
// 100 Continue, HTTP/1.0 and Connection: close semantics, bodiless HEAD,
// 204 and 304 replies, chunked request bodies, net/http's own 400, 431,
// 501 and 505 replies to requests it refuses, OPTIONS *, panic recovery
// (logged, connection closed; silent for http.ErrAbortHandler) and a
// Shutdown that closes idle connections at once and waits for busy ones.
// TestServeConnMatchesNetHTTP and FuzzServeConn hold the two servers to
// byte-identical replies (Date aside) on the same request bytes.
// Informational (1xx) replies, trailers, Hijack and ResponseController
// deadlines are not supported.
// perfbench's reference service and its traced half still run
// net/http.Server, so its api.* spans and trace.overhead_ratio do not
// show the loop's saving; the untraced service's CPU per operation does.
//
// # Degraded mode, admission, and panic isolation
//
// If the attached store starts failing persistently (disk full, I/O
// errors), the owning shard degrades rather than dies: mutating endpoints
// routed to it return 503 with a Retry-After header while reads keep
// serving, running sessions finish in memory (their inputs are already
// durable), a session cancelled meanwhile is flagged unpersisted until its
// stop point is logged, and /api/stats reports the degraded health. Degraded mode is
// per shard — with several shards, sessions hashed to healthy shards keep
// accepting writes while the broken shard recovers, and the aggregate
// health names the degraded shard. A background probe retries the
// store and, on success, rewrites the full live state so every record
// missed while degraded is healed, then clears the flags. -max-sessions
// and -queue-depth (via SetMaxSessions/SetQueueDepth) bound admission with
// 429 + Retry-After; abandoned creates surface as 408. A panicking session
// run or auto-refit is recovered into a failed session (or a logged refit
// failure) carrying the stack trace — one bad configuration never takes
// down the process.
package serve
