package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/workload"
)

// State is a session's lifecycle state.
type State string

// Sessions move created -> running -> done | failed | cancelled.
const (
	StateCreated   State = "created"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// apiError is an error with an HTTP status code attached, so the session
// and manager layers can state intent ("conflict", "not found") without
// importing HTTP handling. retryAfter, when positive, becomes a
// Retry-After header (degraded mode's 503s, admission control's 429s).
type apiError struct {
	code       int
	retryAfter int
	err        error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

func errf(code int, format string, args ...any) error {
	return &apiError{code: code, err: fmt.Errorf(format, args...)}
}

// httpCode maps an error to its HTTP status (400 for plain errors, which
// are validation failures from the layers below).
func httpCode(err error) int {
	if ae, ok := err.(*apiError); ok {
		return ae.code
	}
	return http.StatusBadRequest
}

// BagRequest is the wire form of one bag submission.
type BagRequest struct {
	App    string  `json:"app"`
	Jobs   int     `json:"jobs"`
	Jitter float64 `json:"jitter,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	// At defers the bag's arrival to the given virtual hour.
	At float64 `json:"at,omitempty"`
}

// Session is one named simulation with its own engine, provider, and
// cluster. All methods are safe for concurrent use; while the simulation
// runs, only the run goroutine touches the underlying batch.Service, and
// observers read the published snapshot instead.
type Session struct {
	id   string
	name string
	cfg  SessionConfig
	// pinned is the parameters of the model version cfg.ModelRef pinned
	// (nil without a model_ref), kept for the create record compaction
	// rewrites.
	pinned *ModelParams

	// receipt, when non-nil, marks a remote-homed create's receipt: the
	// status the home shard answered, which Status returns. Every method
	// that needs the simulation refuses (errRemoteHomed), done is closed,
	// and the fields below stay zero (see receipt).
	receipt *SessionStatus

	mu        sync.Mutex
	state     State
	svc       *batch.Service
	submitted int
	snap      batch.Snapshot
	hasSnap   bool
	report    batch.Report
	runErr    error
	cancel    context.CancelFunc
	done      chan struct{}
	subs      map[chan batch.Progress]struct{}
	store     Store
	// bags retains the submissions for store compaction.
	bags []BagRequest
	// wantDetail records that a /jobs or /vms request arrived since the
	// last periodic snapshot, so the run loop pays for the per-job and VM
	// listings only while someone is actually looking; detailWait is
	// created lazily by the first waiting request and closed (then cleared)
	// when a detailed snapshot lands, letting those requests block until
	// the refresh instead of serving data from run start.
	wantDetail atomic.Bool
	detailWait chan struct{}
	// restored marks a session rebuilt from the store after a restart.
	restored bool
	// deleted marks a session already claimed by a Delete, so a concurrent
	// second Delete reports not-found instead of double-logging.
	deleted bool
	// gate is the manager's persist gate (see Manager.persistGate); it is
	// read-locked around every persist-then-apply step, never under s.mu.
	gate *sync.RWMutex
	// traceID is the request trace that created the session (empty when the
	// create arrived untraced); shard is the owning manager's index. Both
	// ride along so lifecycle spans and the final report can be correlated
	// with the edge request, including after a restore from the store.
	traceID string
	shard   int
	// unpersisted marks a session whose cancel could not be appended while
	// the store was degraded; cleared once the recovery compaction captures
	// it.
	unpersisted bool
}

// SessionStatus is the wire form of a session for list/get responses.
type SessionStatus struct {
	ID            string          `json:"id"`
	Name          string          `json:"name,omitempty"`
	State         State           `json:"state"`
	JobsSubmitted int             `json:"jobs_submitted"`
	Config        SessionConfig   `json:"config"`
	Progress      *batch.Progress `json:"progress,omitempty"`
	Error         string          `json:"error,omitempty"`
	// Restored marks sessions recovered from the store at boot.
	Restored bool `json:"restored,omitempty"`
	// Unpersisted marks a session cancelled while the store was degraded;
	// its stop point lives only in memory until recovery.
	Unpersisted bool `json:"unpersisted,omitempty"`
	// TraceID is the request trace that created the session, when it came
	// through the traced HTTP edge (GET /api/trace/{id} retrieves the spans).
	TraceID string `json:"trace_id,omitempty"`
}

// ID returns the session's immutable identifier.
func (s *Session) ID() string { return s.id }

// Status returns a point-in-time snapshot of the session.
func (s *Session) Status() SessionStatus {
	if s.receipt != nil {
		return *s.receipt
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStatus{
		ID:            s.id,
		Name:          s.name,
		State:         s.state,
		JobsSubmitted: s.submitted,
		Config:        s.cfg,
		Restored:      s.restored,
		Unpersisted:   s.unpersisted,
		TraceID:       s.traceID,
	}
	if s.state != StateCreated && s.hasSnap {
		p := s.snap.Progress
		st.Progress = &p
	}
	if s.runErr != nil {
		st.Error = s.runErr.Error()
	}
	return st
}

// closedDone is the done channel of every receipt: a receipt never
// changes, so there is nothing to wait for.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// receipt returns what a router keeps of a create on a remote shard: the
// id and the status the shard answered, and nothing that makes a network
// call. The shard stays the authority over the session; the API forwards
// every later request for it there.
func receipt(st SessionStatus) *Session {
	return &Session{id: st.ID, receipt: &st, done: closedDone}
}

// errRemoteHomed answers a request for a remote-homed session's simulation
// outside its shard: bags, estimates, reports and the job and VM listings
// are served by the home shard's own API, which the router forwards those
// requests to.
func errRemoteHomed(id string) error {
	return errf(http.StatusNotImplemented, "session %s lives on a remote shard; its shard's API serves it", id)
}

// validateBagRequest rejects malformed bag parameters before they reach
// workload.NewBag (which panics on out-of-range jitter).
func validateBagRequest(req BagRequest) (workload.App, error) {
	app, err := workload.ByName(req.App)
	if err != nil {
		return workload.App{}, err
	}
	if req.Jobs <= 0 {
		return workload.App{}, fmt.Errorf("jobs must be positive")
	}
	if req.Jitter < 0 || req.Jitter >= 1 {
		return workload.App{}, fmt.Errorf("jitter must be in [0, 1) (got %v)", req.Jitter)
	}
	if req.At < 0 {
		return workload.App{}, fmt.Errorf("at must be non-negative")
	}
	return app, nil
}

// checkSize refuses a bag larger than one request may ask for. Like
// SessionConfig.checkSizes it bounds requests only, not replay.
func (req BagRequest) checkSize() error {
	if req.Jobs > maxBagJobs {
		return fmt.Errorf("jobs must be at most %d (got %d)", maxBagJobs, req.Jobs)
	}
	return nil
}

// rlockGate holds the manager's persist gate for a persist-then-apply
// step; the returned func releases it. It must be acquired before s.mu —
// the compactor holds the write side while capturing session state, so
// taking it under s.mu would deadlock (see Manager.persistGate).
func (s *Session) rlockGate() func() {
	if s.gate == nil {
		return func() {}
	}
	s.gate.RLock()
	return s.gate.RUnlock
}

// SubmitBag adds a bag of jobs; only valid before the session runs.
func (s *Session) SubmitBag(req BagRequest) (int, float64, error) {
	if err := req.checkSize(); err != nil {
		return 0, 0, err
	}
	return s.submitBag(req)
}

// submitBag is SubmitBag without the request size bound, for replay.
func (s *Session) submitBag(req BagRequest) (int, float64, error) {
	if s.receipt != nil {
		return 0, 0, errRemoteHomed(s.id)
	}
	app, err := validateBagRequest(req)
	if err != nil {
		return 0, 0, err
	}
	defer s.rlockGate()()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCreated {
		return 0, 0, errf(http.StatusConflict, "session %s is %s; bags must be submitted before running", s.id, s.state)
	}
	bag := workload.NewBag(app, req.Jobs, req.Jitter, req.Seed)
	// Validate, persist, then apply: after a successful validation the
	// application step cannot fail, so the durable log and the in-memory
	// service never diverge (a failed log write leaves both untouched).
	if err := s.svc.ValidateBagAt(bag, req.At); err != nil {
		return 0, 0, err
	}
	if err := s.persist(kindBag, req); err != nil {
		return 0, 0, err
	}
	if err := s.svc.SubmitBagAt(bag, req.At); err != nil {
		return 0, 0, err // unreachable: ValidateBagAt covers every check
	}
	s.bags = append(s.bags, req)
	s.submitted += len(bag.Jobs)
	n, mean := len(bag.Jobs), bag.MeanRuntime()
	// The service copied the specs into its own job states; hand the spec
	// buffer back for the next submission.
	bag.Recycle()
	return n, mean, nil
}

// Estimate quotes a bag against the session's configuration without
// running anything.
func (s *Session) Estimate(req BagRequest) (batch.Estimate, error) {
	if s.receipt != nil {
		return batch.Estimate{}, errRemoteHomed(s.id)
	}
	if err := req.checkSize(); err != nil {
		return batch.Estimate{}, err
	}
	app, err := validateBagRequest(req)
	if err != nil {
		return batch.Estimate{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bag := workload.NewBag(app, req.Jobs, req.Jitter, req.Seed)
	est, err := s.svc.Estimate(bag)
	bag.Recycle()
	return est, err
}

// Report returns the final report; an apiError with 404 until the run
// completes.
func (s *Session) Report() (batch.Report, error) {
	if s.receipt != nil {
		return batch.Report{}, errRemoteHomed(s.id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateDone:
		return s.report, nil
	case StateFailed:
		return batch.Report{}, errf(http.StatusConflict, "session %s failed: %v", s.id, s.runErr)
	case StateCancelled:
		return batch.Report{}, errf(http.StatusConflict, "session %s was cancelled: %v", s.id, s.runErr)
	default:
		return batch.Report{}, errf(http.StatusNotFound, "session %s has no completed run", s.id)
	}
}

// detailRefreshTimeout bounds how long a mid-run /jobs or /vms request
// waits for the run loop's next detailed snapshot before serving whatever
// it has. One progress interval is normally milliseconds; the timeout only
// fires for sessions still queued on the worker pool or running with an
// enormous interval.
const detailRefreshTimeout = 2 * time.Second

// awaitDetail asks the run loop for a detailed snapshot and blocks (lock
// released) until one lands, the session ends, or the timeout passes. It
// must be called with s.mu held and returns with it re-held.
func (s *Session) awaitDetail() {
	s.wantDetail.Store(true)
	if s.detailWait == nil {
		s.detailWait = make(chan struct{})
	}
	wait, done := s.detailWait, s.done
	s.mu.Unlock()
	select {
	case <-wait:
	case <-done:
	case <-time.After(detailRefreshTimeout):
	}
	s.mu.Lock()
}

// Jobs returns per-job statuses. While the simulation is running they come
// from a detail refresh at the run loop's next progress interval (at most
// one interval old when served).
func (s *Session) Jobs() ([]batch.JobStatus, error) {
	if s.receipt != nil {
		return nil, errRemoteHomed(s.id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		// The backing service was recycled when the delete landed.
		return nil, errf(http.StatusNotFound, "no session %q", s.id)
	}
	if s.state == StateRunning {
		s.awaitDetail()
	}
	if s.state == StateRunning {
		if !s.hasSnap {
			// Still queued on the worker pool; the first snapshot lands
			// when the simulation actually starts.
			return []batch.JobStatus{}, nil
		}
		return append([]batch.JobStatus(nil), s.snap.Jobs...), nil
	}
	return s.svc.JobStatuses(), nil
}

// VMState describes one live VM for the API; it is the snapshot's VM form.
type VMState = batch.VMInfo

// VMs lists the session's live VMs. While the simulation is running the
// listing comes from a detail refresh at the run loop's next progress
// interval.
func (s *Session) VMs() ([]VMState, error) {
	if s.receipt != nil {
		return nil, errRemoteHomed(s.id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return nil, errf(http.StatusNotFound, "no session %q", s.id)
	}
	if s.state == StateRunning {
		s.awaitDetail()
	}
	if s.state == StateRunning {
		if !s.hasSnap {
			return []VMState{}, nil
		}
		return append([]VMState(nil), s.snap.VMs...), nil
	}
	return s.svc.VMInfos(), nil
}

// Wait blocks until the session's run finishes (it must have been started).
func (s *Session) Wait() {
	<-s.Done()
}

// Done returns a channel closed when the session reaches a terminal state
// (sessions restored from the store in a terminal state are born closed,
// and so is a receipt, which never changes).
func (s *Session) Done() <-chan struct{} { return s.done }

// Manager owns one shard's sessions and the bounded worker pool their runs
// execute on: its own session map, persist gate, store, and degraded-mode
// state, so shards share nothing on the session hot path. A single Manager
// is also a complete unsharded service (the Router with one shard is
// exactly this). Attaching a Store (see Restore) makes the session
// lifecycle durable across process restarts.
type Manager struct {
	models *modelCache
	// registry is the online model registry: versioned, provenance-carrying
	// models that sessions pin via SessionConfig.ModelRef and that learn
	// from ingested preemption observations (see models.go). In a sharded
	// deployment only the control-plane shard's registry holds entries:
	// the router resolves every reference there and passes the pinned
	// parameters to the owning shard.
	registry *registry.Registry
	// executor marks a remote executor shard (see NewShardManager). Its
	// registry stays empty: it refuses model registrations, which no
	// reference could ever resolve to.
	executor bool
	// shard is this manager's index within its Router (0 for a standalone
	// manager), used for logs and the per-shard stats payload.
	shard int
	sem   chan struct{}

	// persistGate serializes persists against online compaction. Every
	// persist-then-apply step read-locks it at its entry point — before
	// s.mu, m.mu, or the registry lock — and the compactor write-locks it
	// while capturing live state and rewriting the snapshot, so no
	// acknowledged append can fall between the capture and the WAL
	// truncation. It is never held across a blocking wait.
	persistGate sync.RWMutex

	mu       sync.Mutex
	seq      int
	sessions map[string]*Session
	order    []string
	// creating holds router-minted ids whose create is in flight, so a
	// second create under the same id is refused before either persists.
	creating map[string]bool
	// store is what sessions persist through: the raw store until Restore
	// attaches one, then the degraded-mode guard around it (innerStore
	// keeps the unguarded handle for recovery and compaction).
	store      Store
	innerStore Store
	// refitInFlight tracks entries with a background auto-refit running,
	// so repeated refit-ready ingests launch at most one worker.
	refitInFlight map[string]bool
	wg            sync.WaitGroup

	// Degraded-mode state (see degraded.go).
	degraded       bool
	degradedReason string
	degradedSince  time.Time
	probing        bool
	unpersisted    map[string]bool
	probeEvery     time.Duration

	// Admission control: maxSessions bounds live sessions (0 = unbounded);
	// queueDepth bounds runs queued beyond the worker pool (0 = unbounded);
	// inflightRuns counts admitted, unfinished runs.
	maxSessions  int
	queueDepth   int
	inflightRuns int

	// Background workers (online compaction, degraded probe).
	compactCh chan struct{}
	stopCh    chan struct{}
	closeOnce sync.Once
	maintWG   sync.WaitGroup

	// met holds the shard-labeled metric series the session lifecycle
	// increments; rebound by obsInit whenever the shard index changes.
	met *serveMetrics

	// Test seams: runHook substitutes for svc.Run in the session worker,
	// refitHook for the auto-refit body. Set before serving traffic.
	runHook   func(ctx context.Context, svc *batch.Service) (batch.Report, error)
	refitHook func(name string) error
}

// NewManager returns a manager whose worker pool runs up to parallelism
// session simulations concurrently (default GOMAXPROCS).
func NewManager(parallelism int) *Manager {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	m := &Manager{
		models:        newModelCache(),
		registry:      registry.New(),
		sem:           make(chan struct{}, parallelism),
		sessions:      make(map[string]*Session),
		creating:      make(map[string]bool),
		refitInFlight: make(map[string]bool),
		unpersisted:   make(map[string]bool),
		probeEvery:    time.Second,
		compactCh:     make(chan struct{}, 1),
		stopCh:        make(chan struct{}),
	}
	m.obsInit()
	return m
}

// SetMaxSessions bounds how many live (undeleted) sessions the manager
// admits; further creates get 429. 0 means unbounded. Call before serving.
func (m *Manager) SetMaxSessions(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.maxSessions = n
}

// SetQueueDepth bounds how many admitted runs may wait for a worker slot
// beyond the pool's parallelism; further runs get 429 with Retry-After.
// 0 means unbounded. Call before serving.
func (m *Manager) SetQueueDepth(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth = n
}

// Create validates the config, builds the session's service (fitting or
// fetching models through the cache), and registers it.
func (m *Manager) Create(name string, cfg SessionConfig) (*Session, error) {
	return m.CreateCtx(context.Background(), name, cfg)
}

// ctxErr maps a request context's cancellation to an apiError: 408 for a
// deadline the client set, so abandoned requests don't burn a model fit.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return errf(http.StatusRequestTimeout, "request abandoned: %v", err)
	}
	return nil
}

// CreateCtx is Create honoring a request-scoped context: the deadline is
// checked before the expensive model build and before the durable append.
func (m *Manager) CreateCtx(ctx context.Context, name string, cfg SessionConfig) (*Session, error) {
	cfg, pinned, err := m.resolveModel(cfg)
	if err != nil {
		return nil, err
	}
	return m.createSession(ctx, "", name, cfg, pinned)
}

// resolveModel resolves cfg.ModelRef, if set, on the manager's registry —
// the one place a reference is ever resolved — and returns the config
// pinned to the concrete version ("name@latest" becomes "name@vN") with
// that version's parameters, so refits published after this moment never
// change what the session simulates. The version's scenario must be the
// session's: a model fitted for one environment silently mispredicts
// another's lifetimes (a mistake "fit" cannot make, since it always uses
// the session's own scenario).
func (m *Manager) resolveModel(cfg SessionConfig) (SessionConfig, *ModelParams, error) {
	if cfg.ModelRef == "" {
		return cfg, nil, nil
	}
	res, err := m.registry.Resolve(cfg.ModelRef)
	if err != nil {
		return cfg, nil, errf(http.StatusBadRequest, "model_ref: %v", err)
	}
	if res.Scenario.VMType != cfg.VMType || res.Scenario.Zone != cfg.Zone {
		return cfg, nil, fmt.Errorf("model_ref: model %s describes (%s, %s), not this session's (%s, %s)",
			res.Pinned, res.Scenario.VMType, res.Scenario.Zone, cfg.VMType, cfg.Zone)
	}
	cfg.ModelRef = res.Pinned
	return cfg, &res.Version.Params, nil
}

// createSession builds and registers a session; pinned carries the
// parameters of the version cfg.ModelRef is pinned to (see resolveModel).
// With id == "" the manager mints the next id from its own sequence (the
// standalone path); a Router instead mints globally-sequential ids on its
// control plane and passes them in, and the owning shard adopts the id
// into its sequence so each shard's durable seq record preserves the
// global high-water mark. An id the shard already holds, or is creating,
// is refused with 409.
func (m *Manager) createSession(ctx context.Context, id, name string, cfg SessionConfig, pinned *ModelParams) (*Session, error) {
	traceID := obs.TraceID(ctx)
	start := time.Now()
	if err := m.admitSession(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.checkSizes(); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	bcfg, err := cfg.build(m.models, pinned)
	if err != nil {
		return nil, err
	}
	svc, err := batch.New(bcfg)
	if err != nil {
		return nil, err
	}
	svc.ProgressEvery = cfg.ProgressEvery
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if id == "" {
		m.seq++
		id = ids.Padded("s-", m.seq, 3)
	} else {
		if m.sessions[id] != nil || m.creating[id] {
			m.mu.Unlock()
			return nil, errf(http.StatusConflict, "session %s already exists on shard %d", id, m.shard)
		}
		m.creating[id] = true
		defer func() {
			m.mu.Lock()
			delete(m.creating, id)
			m.mu.Unlock()
		}()
		var n int
		if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
	}
	st := m.store
	m.mu.Unlock()
	s := &Session{
		id:      id,
		name:    name,
		cfg:     cfg,
		pinned:  pinned,
		state:   StateCreated,
		svc:     svc,
		store:   st,
		gate:    &m.persistGate,
		done:    make(chan struct{}),
		traceID: traceID,
		shard:   m.shard,
	}
	// The durable append (an fsync) runs outside the manager lock: the
	// session is not yet published, so nothing can observe it, and a failed
	// append leaves only a gap in the id sequence. The persist gate spans
	// the append and the registration so an online compaction cannot land
	// between them and truncate the acknowledged create away.
	defer s.rlockGate()()
	// Recheck the bound now that the expensive build is done: concurrent
	// creates may have filled the remaining slots.
	if err := m.admitSession(); err != nil {
		return nil, err
	}
	if err := s.persist(kindCreate, createRecord{Name: name, Config: cfg, Params: pinned, TraceID: traceID}); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.sessions[s.id] = s
	m.order = append(m.order, s.id)
	m.mu.Unlock()
	m.met.created.Inc()
	m.met.scenarios[cfg.Policy].Inc()
	obs.DefaultTracer().Emit(obs.Span{
		TraceID:    traceID,
		Component:  "shard",
		Name:       "session.create",
		Shard:      m.shard,
		Session:    s.id,
		Start:      start,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
	})
	return s, nil
}

// admitSession enforces the max-sessions bound.
func (m *Manager) admitSession() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.maxSessions > 0 && len(m.sessions) >= m.maxSessions {
		return &apiError{
			code: http.StatusTooManyRequests, retryAfter: degradedRetryAfter,
			err: fmt.Errorf("session limit reached (%d live sessions); delete one or retry later", len(m.sessions)),
		}
	}
	return nil
}

// Get returns the session with the given id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, errf(http.StatusNotFound, "no session %q", id)
	}
	return s, nil
}

// List returns all sessions in creation order.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.sessions[id])
	}
	return out
}

// Cancel aborts a running session: the context threaded through the
// simulation's event loop is cancelled, the run stops within one progress
// interval, the partial report is discarded, and the session lands in the
// cancelled state. Cancel blocks until the worker slot has been freed.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return errf(http.StatusNotFound, "no session %q", id)
	}
	s.mu.Lock()
	if s.state != StateRunning {
		state := s.state
		s.mu.Unlock()
		return errf(http.StatusConflict, "session %s is %s, not running", id, state)
	}
	cancel := s.cancel
	s.mu.Unlock()
	cancel()
	<-s.done
	return nil
}

// Delete removes a session. A running session is first cancelled (see
// Cancel), so Delete returns within one progress interval with the worker
// slot freed.
func (m *Manager) Delete(id string) error {
	for {
		m.mu.Lock()
		s, ok := m.sessions[id]
		m.mu.Unlock()
		if !ok {
			return errf(http.StatusNotFound, "no session %q", id)
		}
		// The persist gate is taken per attempt, released before the wait
		// on a running session's end: holding a read lock across <-s.done
		// would deadlock with a pending compaction (its queued write lock
		// blocks the run goroutine's terminal persist from acquiring the
		// read side, so the session could never finish).
		unlock := s.rlockGate()
		s.mu.Lock()
		if s.state == StateRunning {
			cancel := s.cancel
			s.mu.Unlock()
			unlock()
			cancel()
			<-s.done
			continue // now terminal; loop around to remove it
		}
		if s.deleted {
			s.mu.Unlock()
			unlock()
			return errf(http.StatusNotFound, "no session %q", id)
		}
		// Persist the delete before applying it (the fsync happens under
		// the session lock only — the manager stays responsive), then mark
		// never-run sessions cancelled: they have no run goroutine to close
		// done, and Wait callers and event streams must observe the end
		// rather than hang on an unregistered session.
		if err := s.persist(kindDelete, nil); err != nil {
			s.mu.Unlock()
			unlock()
			return err
		}
		s.deleted = true
		if !s.state.terminal() {
			s.state = StateCancelled
			s.runErr = fmt.Errorf("session %s deleted before running", id)
			close(s.done)
		}
		// Hand the session's job-state blocks back to the batch arena. The
		// deleted flag is already set under the same lock, so every later
		// accessor (Jobs, VMs) 404s before touching the recycled service,
		// and the compactor skips deleted sessions entirely.
		if s.svc != nil {
			s.svc.Recycle()
		}
		s.mu.Unlock()
		unlock()
		// A deleted session is terminal, so Run can no longer start it; the
		// map removal needs no coordination with the session lock.
		m.mu.Lock()
		if m.sessions[id] == s {
			delete(m.sessions, id)
			for i, oid := range m.order {
				if oid == id {
					m.order = append(m.order[:i:i], m.order[i+1:]...)
					break
				}
			}
		}
		m.mu.Unlock()
		return nil
	}
}

// Run starts the session's simulation asynchronously on the worker pool.
// It returns immediately; poll the session's status, stream its events, or
// Wait on it.
func (m *Manager) Run(s *Session) error {
	if err := m.admitRun(); err != nil {
		return err
	}
	// The created->running transition is guarded by the session lock alone:
	// a concurrent DELETE marks the session cancelled (terminal) under the
	// same lock before unregistering it, so whichever side wins the lock,
	// Run can never start a session that was just deleted, and Delete can
	// never silently drop one that just started. The fsynced run record is
	// written under the session lock only — the manager stays responsive.
	unlock := s.rlockGate()
	s.mu.Lock()
	if err := func() error {
		switch s.state {
		case StateRunning:
			return errf(http.StatusConflict, "session %s is already running", s.id)
		case StateDone, StateFailed, StateCancelled:
			return errf(http.StatusConflict, "session %s already ran or was removed", s.id)
		}
		if s.submitted == 0 {
			return errf(http.StatusBadRequest, "session %s has no bags submitted", s.id)
		}
		return s.persist(kindRun, nil)
	}(); err != nil {
		s.mu.Unlock()
		unlock()
		m.releaseRun()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.state = StateRunning
	s.cancel = cancel
	svc := s.svc
	s.mu.Unlock()
	unlock()

	svc.OnSnapshot = s.publishSnapshot
	svc.SnapshotDetail = func() bool { return s.wantDetail.Swap(false) }
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.releaseRun()
		defer cancel()
		start := time.Now()
		var rep batch.Report
		var err error
		select {
		case m.sem <- struct{}{}:
			if s.traceID != "" {
				// The wait for a worker slot, as its own span: queueing
				// delay is the first thing to look for in a slow trace.
				obs.DefaultTracer().Emit(obs.Span{
					TraceID: s.traceID, Component: "shard", Name: "session.queued",
					Shard: m.shard, Session: s.id, Start: start,
					DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
				})
			}
			rep, err = m.runSession(ctx, svc)
		case <-ctx.Done():
			// Cancelled while still queued for a worker slot: nothing ran.
			err = fmt.Errorf("batch: run cancelled while queued: %w", ctx.Err())
		}
		state := s.settle(rep, err)
		m.met.terminal[state].Inc()
		if s.traceID != "" {
			obs.DefaultTracer().Emit(obs.Span{
				TraceID: s.traceID, Component: "shard", Name: "session.run",
				Shard: m.shard, Session: s.id, Detail: string(state), Start: start,
				DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
			})
		}
		if state == StateCancelled {
			m.persistCancel(s)
		}
		close(s.done)
	}()
	return nil
}

// settle applies a finished run's outcome to the session and returns the
// terminal state: done with the report (stamped with the create trace, so
// a restored session's report carries it too), cancelled, or failed.
func (s *Session) settle(rep batch.Report, err error) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.state = StateDone
		rep.TraceID = s.traceID
		s.report = rep
	case errors.Is(err, context.Canceled):
		s.state = StateCancelled
		s.runErr = err
	default:
		s.state = StateFailed
		s.runErr = err
	}
	return s.state
}

// runSession executes one simulation on an acquired worker slot, isolating
// panics: a panicking run frees its slot and surfaces as a failed session
// with the stack in the diagnostic, not a dead process.
func (m *Manager) runSession(ctx context.Context, svc *batch.Service) (rep batch.Report, err error) {
	defer func() {
		<-m.sem
		if p := recover(); p != nil {
			err = fmt.Errorf("batch: session run panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if m.runHook != nil {
		return m.runHook(ctx, svc)
	}
	return svc.Run(ctx)
}

// admitRun admits one run into the pool's queue, bounding queued runs at
// queueDepth beyond the pool's parallelism; saturation gets 429 with
// Retry-After rather than an unbounded goroutine pile-up.
func (m *Manager) admitRun() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queueDepth > 0 && m.inflightRuns >= cap(m.sem)+m.queueDepth {
		return &apiError{
			code: http.StatusTooManyRequests, retryAfter: degradedRetryAfter,
			err: fmt.Errorf("run queue is full (%d running or queued); retry later", m.inflightRuns),
		}
	}
	m.inflightRuns++
	return nil
}

func (m *Manager) releaseRun() {
	m.mu.Lock()
	m.inflightRuns--
	m.mu.Unlock()
}

// publishSnapshot installs the latest snapshot and fans its progress out to
// subscribers. It is the batch.Service's OnSnapshot callback, invoked from
// the run goroutine.
func (s *Session) publishSnapshot(snap batch.Snapshot) {
	s.mu.Lock()
	if snap.Jobs == nil {
		// A progress-only snapshot: keep the last detailed listings (the
		// initial and final snapshots always carry them).
		snap.Jobs, snap.VMs = s.snap.Jobs, s.snap.VMs
	} else if s.detailWait != nil {
		// A detailed snapshot: release any /jobs or /vms request waiting
		// on the refresh.
		close(s.detailWait)
		s.detailWait = nil
	}
	s.snap = snap
	s.hasSnap = true
	chans := make([]chan batch.Progress, 0, len(s.subs))
	for ch := range s.subs {
		chans = append(chans, ch)
	}
	s.mu.Unlock()
	for _, ch := range chans {
		offerLatest(ch, snap.Progress)
	}
}

// Wait blocks until every started run has finished; used for graceful
// shutdown and by tests.
func (m *Manager) Wait() {
	m.wg.Wait()
}

// Stats summarizes the manager for GET /api/stats.
type Stats struct {
	Sessions map[State]int `json:"sessions"`
}

// Stats returns per-state session counts, with deterministic map contents
// (states with zero sessions are included).
func (m *Manager) Stats() Stats {
	st := Stats{Sessions: map[State]int{
		StateCreated: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}}
	for _, s := range m.List() {
		s.mu.Lock()
		st.Sessions[s.state]++
		s.mu.Unlock()
	}
	return st
}
