package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/store"
)

// Backend is what the HTTP API serves: either a single Manager (the
// unsharded service, and the /api surface of every shard process) or a
// Router fanning requests out over several shard slots. All session and
// model operations the API makes go through it.
type Backend interface {
	CreateCtx(ctx context.Context, name string, cfg SessionConfig) (*Session, error)
	Get(id string) (*Session, error)
	// ListPartial lists session statuses with partial-failure visibility:
	// statuses from every reachable shard plus one ShardError per shard that
	// could not answer. A single-process backend never fails partially.
	ListPartial() ([]SessionStatus, []ShardError)
	Delete(id string) error
	Cancel(id string) error
	Run(s *Session) error
	SweepCtx(ctx context.Context, req SweepRequest) (SweepReport, error)
	RegisterModel(req ModelCreateRequest) (registry.Info, error)
	Models() []registry.Info
	ModelInfo(name string) (registry.Info, error)
	IngestObservations(name string, lifetimes []float64) (registry.IngestResult, error)
	RefitModel(name, source string) (registry.Version, error)
	// Trace returns the recorded spans for one trace ID, oldest first; a
	// Router merges the local ring with every remote shard's.
	Trace(id string) []obs.Span
	statsPayload() map[string]any
	// remoteHome returns the remote shard a session id is placed on, whose
	// API the request is forwarded to; nil when the home shard is local.
	remoteHome(id string) *RemoteBackend
}

var (
	_ Backend = (*Manager)(nil)
	_ Backend = (*Router)(nil)
)

// ListPartial on a single Manager is its sessions' statuses in creation
// order: one process, no partial failure domain.
func (m *Manager) ListPartial() ([]SessionStatus, []ShardError) {
	sessions := m.List()
	out := make([]SessionStatus, len(sessions))
	for i, s := range sessions {
		out[i] = s.Status()
	}
	return out, nil
}

// Trace on a single Manager reads the process-wide span ring. The ring
// orders spans by when they finished; callers get them by start time, the
// order a trace viewer would draw them.
func (m *Manager) Trace(id string) []obs.Span {
	spans := obs.DefaultTracer().Spans(id)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return spans
}

// remoteHome on a single Manager is always nil: every session is local.
func (m *Manager) remoteHome(string) *RemoteBackend { return nil }

// listSessions adapts ListPartial to the shard-slot shape.
func (m *Manager) listSessions() ([]SessionStatus, error) {
	out, _ := m.ListPartial()
	return out, nil
}

// shardSlot is one slot in the router's shard table: a local *Manager or a
// *RemoteBackend speaking to a shard process. The router treats them
// uniformly; only construction, Restore, and per-shard tuning distinguish
// local from remote. A remote slot refuses Get, Delete, Cancel and Run:
// the API forwards a remote-homed session's requests to its shard.
type shardSlot interface {
	createSession(ctx context.Context, id, name string, cfg SessionConfig, pinned *ModelParams) (*Session, error)
	listSessions() ([]SessionStatus, error)
	shardInfo() (ShardInfo, error)
	sweep(ctx context.Context, req shardSweepRequest) ([]cellOutcome, error)
	Get(id string) (*Session, error)
	Delete(id string) error
	Cancel(id string) error
	Run(s *Session) error
	Close()
}

var (
	_ shardSlot = (*Manager)(nil)
	_ shardSlot = (*RemoteBackend)(nil)
)

// Router is the sharded serving backend: a thin stateless request router
// over N session-executor shards. Each shard is a full Manager — its own
// session map, worker pool, persist gate, store, and degraded-mode state —
// so shards share nothing on the session hot path and their WAL fsync
// streams run in parallel. Sessions are placed by consistent hash on their
// id (see internal/placement): placement is a pure function of (id, shard
// count), stable across restarts, and changing the shard count moves only
// the minimal fraction of sessions at the next boot.
//
// Shard 0 is the control plane: it owns the model registry (and persists
// its mutations through its own store). The router resolves every model
// reference there, once, at create, and hands the owning shard the pinned
// version's parameters, so no other shard keeps registry state. Shards may
// live in this process or in other processes behind the shard protocol
// (see NewRouterTopology), where every call is a supervised failure
// domain — per-op deadlines, retries for idempotent operations, and a
// per-shard circuit breaker. List, Sweep, and stats are scatter-gather
// with order-stable aggregation; unreachable shards degrade those to
// partial results instead of failing them.
type Router struct {
	slots   []shardSlot
	locals  []*Manager       // locals[i] non-nil iff slot i is in-process
	remotes []*RemoteBackend // remotes[i] non-nil iff slot i is remote

	mu  sync.Mutex
	seq int

	tickStop  chan struct{}
	tickWG    sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter builds a router over nshards in-process executor shards whose
// worker pools together run up to parallelism concurrent simulations
// (default GOMAXPROCS; the pool is divided evenly, rounding up, so a total
// of 4 over 4 shards gives each shard 1 worker). One shard behaves exactly
// like a standalone Manager with a router in front.
func NewRouter(nshards, parallelism int) *Router {
	if nshards <= 0 {
		nshards = 1
	}
	r, err := NewRouterTopology(make([]string, nshards), parallelism, nil)
	if err != nil {
		panic(err) // unreachable: an all-local topology cannot be invalid
	}
	return r
}

// NewRouterTopology builds a router over a mixed shard topology: one entry
// per shard, "" for an in-process Manager, an address ("host:port" or
// "http://host:port") for a shard process serving ShardHandler. Shard 0
// must be local — it is the control plane, owning the model registry and
// the durable id high-water mark. parallelism divides over the local
// shards only; remote shards size their own pools. opts tunes every remote
// backend's timeouts, retries, and breaker (nil for defaults).
func NewRouterTopology(topology []string, parallelism int, opts *RemoteOptions) (*Router, error) {
	nshards := len(topology)
	if nshards == 0 {
		return nil, fmt.Errorf("serve: topology needs at least one shard")
	}
	if topology[0] != "" {
		return nil, fmt.Errorf("serve: shard 0 is the control plane and must be local (topology[0] = %q)", topology[0])
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	nlocal := 0
	for _, addr := range topology {
		if addr == "" {
			nlocal++
		}
	}
	per := (parallelism + nlocal - 1) / nlocal

	r := &Router{
		slots:    make([]shardSlot, nshards),
		locals:   make([]*Manager, nshards),
		remotes:  make([]*RemoteBackend, nshards),
		tickStop: make(chan struct{}),
	}
	// All local shards share one fit cache: fitting is deterministic in the
	// recipe, so a session on shard 2 reuses the registry a session on
	// shard 0 already paid to fit. (A remote shard has its own process-wide
	// cache.)
	models := newModelCache()
	for i, addr := range topology {
		if addr == "" {
			m := NewManager(per)
			m.models = models
			m.shard = i
			// Rebind the metric series to the real shard index (NewManager
			// bound them to 0).
			m.obsInit()
			r.locals[i] = m
			r.slots[i] = m
			continue
		}
		rb := NewRemoteBackend(addr, opts)
		rb.shard = i
		rb.retries = obs.Default().Counter("batchsvc_remote_retries_total",
			"Retried remote shard calls (transport failures on idempotent operations), by shard.",
			"shard", shardLabel(i))
		obs.Default().GaugeFunc("batchsvc_shard_breaker_state",
			"Remote shard circuit-breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 { return breakerStateValue(rb.BreakerState()) },
			"shard", shardLabel(i))
		r.remotes[i] = rb
		r.slots[i] = rb
	}
	for _, rb := range r.remotes {
		if rb != nil {
			r.tickWG.Add(1)
			go r.idTick(rb)
		}
	}
	return r, nil
}

// idSyncInterval paces the id tick: how often the router re-reads each
// remote shard's id high-water mark.
const idSyncInterval = time.Second

// idTick keeps the router's id sequence at or past one remote shard's,
// which covers a shard that restored its WAL while the router could not
// reach it.
func (r *Router) idTick(rb *RemoteBackend) {
	defer r.tickWG.Done()
	t := time.NewTicker(idSyncInterval)
	defer t.Stop()
	for {
		r.syncRemote(rb)
		select {
		case <-r.tickStop:
			return
		case <-t.C:
		}
	}
}

// syncRemote adopts one remote shard's id high-water mark, so a reconnect
// after a shard-side restore never re-mints an id. A failure is dropped;
// the next tick retries.
func (r *Router) syncRemote(rb *RemoteBackend) {
	info, err := rb.shardInfo()
	if err != nil {
		return
	}
	r.mu.Lock()
	if info.IDSeq > r.seq {
		r.seq = info.IDSeq
	}
	r.mu.Unlock()
}

// SyncRemotes runs one blocking id sync against every remote shard —
// called after the shard processes are known to be up (batchsvc runs it
// once the supervisor reports readiness) so the router's id sequence
// starts past every shard's instead of one tick behind.
func (r *Router) SyncRemotes() {
	for _, rb := range r.remotes {
		if rb != nil {
			r.syncRemote(rb)
		}
	}
}

// control returns the control-plane shard (shard 0), which owns the model
// registry and the global id sequence's durable high-water mark.
func (r *Router) control() *Manager { return r.locals[0] }

// Shards returns the number of executor shards.
func (r *Router) Shards() int { return len(r.slots) }

// Shard exposes one shard's local Manager, for tests and per-shard tuning
// (runHook seams, probe intervals); nil for a remote shard.
func (r *Router) Shard(i int) *Manager { return r.locals[i] }

// Remote exposes one shard's RemoteBackend; nil for a local shard.
func (r *Router) Remote(i int) *RemoteBackend { return r.remotes[i] }

// shardFor returns the slot owning id.
func (r *Router) shardFor(id string) shardSlot {
	return r.slots[placement.Shard(id, len(r.slots))]
}

// SetMaxSessions bounds live sessions across the local shards; the bound
// is divided evenly (rounding up), so a hash-skewed shard can 429 slightly
// before the global total is reached. 0 means unbounded. Remote shards
// enforce their own bounds (their process's -max-sessions flag).
func (r *Router) SetMaxSessions(n int) {
	per := 0
	if n > 0 {
		per = (n + len(r.slots) - 1) / len(r.slots)
	}
	for _, m := range r.locals {
		if m != nil {
			m.SetMaxSessions(per)
		}
	}
}

// SetQueueDepth bounds queued runs per the same division as
// SetMaxSessions. 0 means unbounded. Remote shards enforce their own.
func (r *Router) SetQueueDepth(n int) {
	per := 0
	if n > 0 {
		per = (n + len(r.slots) - 1) / len(r.slots)
	}
	for _, m := range r.locals {
		if m != nil {
			m.SetQueueDepth(per)
		}
	}
}

// SetProbeInterval tunes every local shard's degraded-mode probe.
func (r *Router) SetProbeInterval(d time.Duration) {
	for _, m := range r.locals {
		if m != nil {
			m.SetProbeInterval(d)
		}
	}
}

// nextID mints the next globally-sequential session id. Ids are global so
// listings and reports are stable regardless of sharding: the same create
// sequence yields the same ids — and therefore byte-identical session
// reports — at any shard count.
func (r *Router) nextID() string {
	r.mu.Lock()
	r.seq++
	id := ids.Padded("s-", r.seq, 3)
	r.mu.Unlock()
	return id
}

// Create validates the config, builds the session on its hash-placed home
// shard, and registers it there.
func (r *Router) Create(name string, cfg SessionConfig) (*Session, error) {
	return r.CreateCtx(context.Background(), name, cfg)
}

// CreateCtx resolves the config's model reference on the control plane,
// mints a global id, places the session by consistent hash, and hands it
// to the owning shard with the pinned model parameters. A create the shard
// refuses burns the id — exactly the gap semantics a standalone Manager
// has for a failed durable append. A remote shard refuses a create with
// 409 only for an id it already holds, which means this router's id
// sequence is behind the shard's (it has not yet read the shard's
// high-water mark); the router then adopts that mark and creates once more
// under a fresh id. A remote-homed create returns a receipt (see receipt).
func (r *Router) CreateCtx(ctx context.Context, name string, cfg SessionConfig) (*Session, error) {
	cfg, pinned, err := r.control().resolveModel(cfg)
	if err != nil {
		return nil, err
	}
	for retried := false; ; retried = true {
		id := r.nextID()
		shard := placement.Shard(id, len(r.slots))
		// The routing decision, as its own span. The router never mints
		// trace IDs: untraced creates (internal callers) stay untraced so
		// their persisted reports are byte-stable.
		end := func() {}
		if tid := obs.TraceID(ctx); tid != "" {
			end = obs.DefaultTracer().Span(tid, "router", "route.create", shard, id)
		}
		s, err := r.slots[shard].createSession(ctx, id, name, cfg, pinned)
		end()
		rb := r.remotes[shard]
		if retried || rb == nil || httpCode(err) != http.StatusConflict {
			return s, err
		}
		r.syncRemote(rb)
	}
}

// Get resolves a session on its home shard (see shardSlot).
func (r *Router) Get(id string) (*Session, error) { return r.shardFor(id).Get(id) }

// remoteHome returns the home shard's backend when that shard is remote.
func (r *Router) remoteHome(id string) *RemoteBackend {
	return r.remotes[placement.Shard(id, len(r.slots))]
}

// List scatter-gathers every reachable shard's sessions and merges them
// into global creation order (by id sequence); unreachable shards'
// sessions are silently absent. Use ListPartial to observe which shards
// failed.
func (r *Router) List() []SessionStatus {
	all, _ := r.ListPartial()
	return all
}

// ListPartial scatter-gathers every shard's sessions, reporting shards
// that could not answer as ShardErrors alongside the merged listing from
// the shards that could — the partial-results contract: one dead shard
// must not take down the whole listing.
func (r *Router) ListPartial() ([]SessionStatus, []ShardError) {
	all := []SessionStatus{}
	var errs []ShardError
	for i, sl := range r.slots {
		list, err := sl.listSessions()
		if err != nil {
			errs = append(errs, r.shardError(i, err))
			continue
		}
		all = append(all, list...)
	}
	sort.Slice(all, func(i, j int) bool { return sessionIDLess(all[i].ID, all[j].ID) })
	return all, errs
}

// shardError packages one shard's scatter-gather failure.
func (r *Router) shardError(i int, err error) ShardError {
	se := ShardError{Shard: i, Error: err.Error()}
	if rb := r.remotes[i]; rb != nil {
		se.Breaker = rb.BreakerState()
	}
	return se
}

// Trace merges the local span ring with every remote shard's recorded
// spans for one trace ID, ordered by start time — one call shows the whole
// edge-to-WAL path regardless of which process each span was recorded in.
// Unreachable shards contribute nothing (best-effort, like ListPartial).
func (r *Router) Trace(id string) []obs.Span {
	spans := obs.DefaultTracer().Spans(id)
	for _, rb := range r.remotes {
		if rb != nil {
			remote, _ := rb.traceSpans(id)
			spans = append(spans, remote...)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return spans
}

// Delete removes a session from its home shard.
func (r *Router) Delete(id string) error { return r.shardFor(id).Delete(id) }

// Cancel aborts a running session on its home shard.
func (r *Router) Cancel(id string) error { return r.shardFor(id).Cancel(id) }

// Run starts the session on its home shard's worker pool.
func (r *Router) Run(s *Session) error { return r.shardFor(s.ID()).Run(s) }

// Model operations are control-plane operations: they delegate to shard 0,
// whose registry owns the entries.

func (r *Router) RegisterModel(req ModelCreateRequest) (registry.Info, error) {
	return r.control().RegisterModel(req)
}
func (r *Router) Models() []registry.Info { return r.control().Models() }
func (r *Router) ModelInfo(name string) (registry.Info, error) {
	return r.control().ModelInfo(name)
}
func (r *Router) ModelStats() registry.Stats { return r.control().ModelStats() }
func (r *Router) IngestObservations(name string, lifetimes []float64) (registry.IngestResult, error) {
	return r.control().IngestObservations(name, lifetimes)
}
func (r *Router) RefitModel(name, source string) (registry.Version, error) {
	return r.control().RefitModel(name, source)
}

// gatherInfo scatter-gathers every shard's ShardInfo; failed shards get a
// ShardError and a zero info slot.
func (r *Router) gatherInfo() ([]ShardInfo, []ShardError) {
	infos := make([]ShardInfo, len(r.slots))
	var errs []ShardError
	for i, sl := range r.slots {
		info, err := sl.shardInfo()
		if err != nil {
			errs = append(errs, r.shardError(i, err))
			continue
		}
		infos[i] = info
	}
	return infos, errs
}

// Wait blocks until every in-process shard's started runs and refits have
// finished. A remote shard drains its own runs on the SIGTERM its
// supervisor sends (see Supervisor.Stop).
func (r *Router) Wait() {
	for _, m := range r.locals {
		if m != nil {
			m.Wait()
		}
	}
}

// Close stops the id ticks and every shard's background workers (for
// remote shards: its idle connections — the shard process itself belongs
// to its supervisor).
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.tickStop) })
	r.tickWG.Wait()
	for _, sl := range r.slots {
		sl.Close()
	}
}

// Restore attaches one store per local shard and rebuilds the service from
// their records. stores[i] becomes shard i's store and must be nil exactly
// when shard i is remote: a remote shard restores from its own WAL in its
// own process, before the router ever connects. extras are stores left
// behind by a previous boot with more shards (their sessions are re-homed
// into the live shards and the stores are drained down to a seq record).
//
// Changing which shards are remote is a topology change like any other:
// sessions only ever re-home across a shard-count change, and a re-homed
// session can only be rebuilt into a local shard — restoring a store whose
// sessions hash to a remote slot is refused. Boot all-local once to
// migrate, then redistribute.
//
// The restore pipeline is shard-parallel where it is expensive and
// sequential where crash-safety demands order:
//
//  1. Parse every store's records concurrently (per-store replay order is
//     preserved within each store; stores are independent logs).
//  2. Apply model-registry records to the control plane in store-index
//     order.
//  3. Give every create record logged without its pinned model parameters
//     (written before creates carried them) the parameters from the
//     restored registry. Route each parsed session to its hash-placed home
//     shard (a session found in several stores — possible only
//     mid-migration after a crash — is taken from the lowest-indexed store)
//     and rebuild all shards concurrently: model re-fitting and bag replay
//     dominate restore cost, and they now spread over every core.
//  4. Compact shard stores from the highest index down, then drain the
//     extras. Shard-count changes only ever move sessions toward higher
//     indices when growing (jump hash moves keys only onto new shards) and
//     from extras into live shards when shrinking, so compacting high
//     before low — and live before extras — guarantees a moved session is
//     durable at its new home before the old home's compaction drops it.
func (r *Router) Restore(stores []Store, extras ...Store) error {
	if len(stores) != len(r.slots) {
		return fmt.Errorf("serve: Restore needs one store per shard (%d stores, %d shards)", len(stores), len(r.slots))
	}
	for i, st := range stores {
		if r.locals[i] == nil {
			if st != nil {
				return fmt.Errorf("serve: Restore: shard %d is remote; its store belongs to its own process", i)
			}
			continue
		}
		if st == nil {
			return fmt.Errorf("serve: Restore: shard %d store is nil", i)
		}
		if err := r.locals[i].attachStore(st); err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}

	// 1. Parse all (local) stores concurrently.
	all := append(append([]Store{}, stores...), extras...)
	parsed := make([]*parsedStore, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, st := range all {
		if st == nil {
			continue
		}
		wg.Add(1)
		go func(i int, st Store) {
			defer wg.Done()
			parsed[i], errs[i] = parseStoreRecords(st.Records())
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("serve: parsing store %d: %w", i, err)
		}
	}

	// 2. Replay model records into the control plane (normally only store 0
	// carries any; applying in store-index order keeps replay deterministic
	// if they ever spread).
	for _, ps := range parsed {
		if ps == nil {
			continue
		}
		if err := r.control().applyModelRecords(ps.models); err != nil {
			return err
		}
	}

	// 3. Pin legacy creates on the restored registry, route sessions to
	// their home shards, first occurrence (lowest store index) winning, and
	// rebuild shards concurrently.
	type shardLoad struct {
		sessions map[string]*pendingSession
		order    []string
	}
	loads := make([]shardLoad, len(r.slots))
	for i := range loads {
		loads[i].sessions = make(map[string]*pendingSession)
	}
	seen := make(map[string]bool)
	maxSeq := 0
	for _, ps := range parsed {
		if ps == nil {
			continue
		}
		if err := ps.pinLegacyCreates(registryVersions(r.control().registry)); err != nil {
			return err
		}
		if ps.maxSeq > maxSeq {
			maxSeq = ps.maxSeq
		}
		for _, id := range ps.order {
			if seen[id] {
				continue
			}
			seen[id] = true
			home := placement.Shard(id, len(r.slots))
			if r.locals[home] == nil {
				return fmt.Errorf("serve: session %s re-homes to remote shard %d; boot all-local to migrate a topology change", id, home)
			}
			loads[home].sessions[id] = ps.sessions[id]
			loads[home].order = append(loads[home].order, id)
		}
	}
	rebuildErrs := make([]error, len(r.slots))
	for i, m := range r.locals {
		if m == nil {
			continue
		}
		wg.Add(1)
		go func(i int, m *Manager) {
			defer wg.Done()
			rebuildErrs[i] = m.rebuildAll(loads[i].sessions, loads[i].order)
		}(i, m)
	}
	wg.Wait()
	for i, err := range rebuildErrs {
		if err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	// Every shard's durable seq record carries the global high-water mark,
	// so any single surviving store is enough to never re-mint an id.
	// (Remote shards report theirs through /shard/info on every id tick.)
	for _, m := range r.locals {
		if m != nil {
			m.bumpSeq(maxSeq)
		}
	}
	r.mu.Lock()
	if maxSeq > r.seq {
		r.seq = maxSeq
	}
	r.mu.Unlock()

	// 4. Compact high-to-low, then drain the extras (see the doc comment
	// for why this order is what makes a mid-migration crash recoverable).
	for i := len(r.locals) - 1; i >= 0; i-- {
		if r.locals[i] == nil {
			continue
		}
		if err := r.locals[i].CompactStore(); err != nil {
			return fmt.Errorf("serve: shard %d: compacting: %w", i, err)
		}
	}
	for i, st := range extras {
		if err := drainExtraStore(st, maxSeq); err != nil {
			return fmt.Errorf("serve: draining extra store %d: %w", i, err)
		}
	}

	r.control().rearmAutoRefits()
	for i, m := range r.locals {
		if m != nil {
			m.startMaintenance(stores[i])
		}
	}
	return nil
}

// drainExtraStore compacts a store left behind by a previous, larger shard
// count down to a single seq record: its sessions are durable at their new
// homes by the time this runs, and the seq record keeps the directory
// harmless (and the id high-water mark intact) if an operator ever points a
// shard at it again.
func drainExtraStore(st Store, maxSeq int) error {
	raw, err := json.Marshal(seqRecord{Max: maxSeq})
	if err != nil {
		return err
	}
	return st.Compact([]store.Record{{Kind: kindSeq, Data: raw}})
}

// statsPayload assembles GET /api/stats for the sharded service: the same
// top-level keys a single Manager emits (sessions, models, schedule_cache,
// dp_solves, health, store — aggregated across shards) plus a "shards"
// array with each shard's own counters, health, and store stats. An
// unreachable shard contributes an error entry (with its breaker state)
// instead of counters, and marks the whole payload "partial".
func (r *Router) statsPayload() map[string]any {
	infos, errs := r.gatherInfo()
	sums := Stats{Sessions: map[State]int{
		StateCreated: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}}
	failed := make(map[int]ShardError, len(errs))
	for _, se := range errs {
		failed[se.Shard] = se
	}
	shards := make([]map[string]any, len(r.slots))
	var storeTotal *store.Stats
	health := Health{}
	for i := range r.slots {
		if se, ok := failed[i]; ok {
			entry := map[string]any{"shard": i, "error": se.Error}
			if se.Breaker != "" {
				entry["breaker"] = se.Breaker
			}
			shards[i] = entry
			if !health.Degraded {
				health.Degraded = true
				health.Reason = fmt.Sprintf("shard %d: unreachable: %s", i, se.Error)
			}
			continue
		}
		info := infos[i]
		for state, n := range info.Sessions {
			sums.Sessions[state] += n
		}
		if info.Health.Degraded && !health.Degraded {
			health.Degraded = true
			health.Reason = fmt.Sprintf("shard %d: %s", i, info.Health.Reason)
			health.Since = info.Health.Since
		}
		health.UnpersistedSessions = append(health.UnpersistedSessions, info.Health.UnpersistedSessions...)
		entry := map[string]any{
			"shard":    i,
			"sessions": info.Sessions,
			"health":   info.Health,
		}
		if rb := r.remotes[i]; rb != nil {
			entry["remote"] = rb.Addr()
			entry["breaker"] = rb.BreakerState()
		}
		if info.Store != nil {
			entry["store"] = info.Store
			if storeTotal == nil {
				storeTotal = &store.Stats{}
			}
			storeTotal.Replayed += info.Store.Replayed
			storeTotal.Appended += info.Store.Appended
			storeTotal.Compactions += info.Store.Compactions
			storeTotal.TornTail = storeTotal.TornTail || info.Store.TornTail
			storeTotal.WALRecords += info.Store.WALRecords
			storeTotal.WALBytes += info.Store.WALBytes
			storeTotal.Poisoned = storeTotal.Poisoned || info.Store.Poisoned
		}
		shards[i] = entry
	}
	payload := map[string]any{
		"sessions":       sums.Sessions,
		"models":         r.ModelStats(),
		"schedule_cache": policy.SharedCacheStats(),
		"dp_solves":      collectDPSolveStats(),
		"health":         health,
		"shards":         shards,
	}
	if storeTotal != nil {
		payload["store"] = storeTotal
	}
	if len(errs) > 0 {
		payload["partial"] = true
		payload["errors"] = errs
	}
	return payload
}
