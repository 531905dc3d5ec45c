package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
)

// Store is the durable event log the manager records session lifecycle
// events to. *store.Log implements it; tests may substitute fakes. The
// record schema (kinds and payloads) is owned by this package — the store
// itself treats records as opaque.
type Store interface {
	// Records returns the events replayed when the store was opened.
	Records() []store.Record
	// Append durably writes one event.
	Append(kind, id string, v any) (store.Record, error)
	// Compact replaces everything with the given compacted event list.
	Compact(records []store.Record) error
	// Stats exposes the store's counters for /api/stats.
	Stats() store.Stats
}

// Record kinds. A session's durable history is its inputs alone:
// create (bag)* [run [cancelled]] [delete]. A run's outcome is not logged —
// the simulation is a pure function of the config, the bags and the pinned
// model, so Restore recomputes it (see replayRun); only a cancel, whose
// timing no input determines, records where the run stopped. Logs written
// before this schema also carry done/failed records; replay ignores them.
// A manager-level seq record preserves the id counter across compactions
// that erase deleted sessions' history. A model entry's live history is
// model_create (model_obs | model_version)*, with the record ID carrying
// the entry name; compaction collapses each entry to one model_state
// record (versions + detector state + refit buffer), so boot replay never
// re-feeds the observation history.
const (
	kindCreate    = "create"
	kindBag       = "bag"
	kindRun       = "run"
	kindCancelled = "cancelled"
	kindDelete    = "delete"
	kindSeq       = "seq"

	kindModelCreate  = "model_create"
	kindModelVersion = "model_version"
	kindModelObs     = "model_obs"
	kindModelState   = "model_state"

	// kindNoop is appended by the degraded-mode probe to verify the store
	// accepts writes again; replay ignores it (unknown-session skip path).
	kindNoop = "noop"
)

// modelCreateRecord is the payload of a kindModelCreate record; the
// version-1 provenance already carries fitted parameters, so replay never
// refits a recipe.
type modelCreateRecord struct {
	Scenario registry.Scenario    `json:"scenario"`
	Config   registry.EntryConfig `json:"config"`
	Version  registry.Provenance  `json:"version"`
}

// modelObsRecord is the payload of a kindModelObs record: one ingested
// batch, in ingest order, so replay reproduces the detector's windows.
type modelObsRecord struct {
	Lifetimes []float64 `json:"lifetimes"`
}

// legacyReplicaKind and legacyReplicaRecord decode the "replica" records a
// remote shard's log carried while the control plane replicated its
// registry to every shard: one entry's versions, the latest record per
// entry name the newest. Replay reads them only to pin the parameters of
// create records written before creates carried them; the boot compaction
// rewrites those creates with parameters and writes no replica record.
const legacyReplicaKind = "replica"

type legacyReplicaRecord struct {
	Entry struct {
		Name     string             `json:"name"`
		Versions []registry.Version `json:"versions"`
	} `json:"entry"`
}

// seqRecord is the payload of a kindSeq record: the highest session id
// number ever minted, so ids of deleted sessions are never reused.
type seqRecord struct {
	Max int `json:"max"`
}

// createRecord is the payload of a kindCreate record. Params are the
// parameters of the model version a model_ref config is pinned to, so
// replay rebuilds the session without resolving anything (records written
// before they were logged get them at boot, see pinLegacyCreates). TraceID
// preserves the creating request's trace across restarts, so a restored
// session's status and report still point at the trace that made it.
type createRecord struct {
	Name    string        `json:"name,omitempty"`
	Config  SessionConfig `json:"config"`
	Params  *ModelParams  `json:"params,omitempty"`
	TraceID string        `json:"trace_id,omitempty"`
}

// cancelRecord is the payload of a kindCancelled record: the diagnostic
// and the progress at the stop point. Its engine_steps is the one input the
// log cannot re-derive — the progress boundary where the run noticed the
// cancel — and replay stops there (0 or absent: the run never stepped).
// Records that still carry the per-job listing parse unchanged; the extra
// keys are ignored.
type cancelRecord struct {
	Progress *batch.Progress `json:"progress,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// cancelRecord builds the session's cancelled record from its live state.
// Call with s.mu held.
func (s *Session) cancelRecord() cancelRecord {
	rec := cancelRecord{Error: s.runErr.Error()}
	if s.hasSnap {
		p := s.snap.Progress
		rec.Progress = &p
	}
	return rec
}

// persist appends one record for this session, mapping store failures to a
// 500 — or 503 with Retry-After when the store is degraded. It is a no-op
// when no store is attached.
func (s *Session) persist(kind string, v any) error {
	if s.store == nil {
		return nil
	}
	if s.traceID != "" {
		start := time.Now()
		defer func() {
			obs.DefaultTracer().Emit(obs.Span{
				TraceID: s.traceID, Component: "wal", Name: "wal.persist",
				Shard: s.shard, Session: s.id, Detail: kind, Start: start,
				DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
			})
		}()
	}
	if _, err := s.store.Append(kind, s.id, v); err != nil {
		if errors.Is(err, ErrDegraded) {
			return degradedErr(fmt.Errorf("persisting %s for session %s: %w", kind, s.id, err))
		}
		return errf(http.StatusInternalServerError, "persisting %s for session %s: %v", kind, s.id, err)
	}
	return nil
}

// persistModel appends one record for a registry entry, mapping store
// failures to a 500. It is a no-op when no store is attached. It runs as
// the registry's commit callback, under the registry lock, which is what
// guarantees the WAL's model-record order matches the order the registry
// applied the mutations in.
func (m *Manager) persistModel(kind, name string, v any) error {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	if _, err := st.Append(kind, name, v); err != nil {
		if errors.Is(err, ErrDegraded) {
			return degradedErr(fmt.Errorf("persisting %s for model %s: %w", kind, name, err))
		}
		return errf(http.StatusInternalServerError, "persisting %s for model %s: %v", kind, name, err)
	}
	return nil
}

// persistCancel records a cancelled run's stop point. It runs on the run
// goroutine after the run returned; a done or failed run writes nothing,
// since its outcome is recomputed from the inputs on restore. Store
// failures here have no client to report to; they are logged — and while
// degraded the session is flagged unpersisted so the recovery compaction
// knows to re-capture it.
func (m *Manager) persistCancel(s *Session) {
	defer s.rlockGate()()
	s.mu.Lock()
	rec := s.cancelRecord()
	s.mu.Unlock()
	if err := s.persist(kindCancelled, rec); err != nil {
		m.slogger().Error("cancel persist failed",
			"session", s.id, "trace_id", s.traceID, "err", err)
		if errors.Is(err, ErrDegraded) {
			m.markUnpersisted(s)
		}
	}
}

// pendingSession accumulates one session's records during replay.
type pendingSession struct {
	name      string
	cfg       SessionConfig
	pinned    *ModelParams
	traceID   string
	bags      []BagRequest
	ran       bool
	cancelled *cancelRecord
}

// parsedStore is the decoded content of one store's records: the live
// sessions (with their replay order and id high-water mark) plus the raw
// model-registry records in log order. It is what a single-shard Restore
// consumes whole, and what the Router redistributes across shards when the
// shard count changed between boots. legacyVersions holds, per entry name,
// the versions a legacy replica record listed (see legacyReplicaRecord).
type parsedStore struct {
	sessions       map[string]*pendingSession
	order          []string
	models         []store.Record
	legacyVersions map[string][]registry.Version
	maxSeq         int
}

// parseStoreRecords decodes a store's replayed records without touching any
// manager state, so stores can be parsed in parallel at boot. Model records
// are collected raw (still in log order) for applyModelRecords; session
// records fold into pendingSessions with deletes applied.
func parseStoreRecords(recs []store.Record) (*parsedStore, error) {
	ps := &parsedStore{
		sessions:       make(map[string]*pendingSession),
		legacyVersions: make(map[string][]registry.Version),
	}
	for _, rec := range recs {
		switch rec.Kind {
		case kindSeq:
			var sr seqRecord
			if err := json.Unmarshal(rec.Data, &sr); err != nil {
				return nil, fmt.Errorf("serve: corrupt seq record: %w", err)
			}
			if sr.Max > ps.maxSeq {
				ps.maxSeq = sr.Max
			}
			continue
		case kindModelCreate, kindModelVersion, kindModelObs, kindModelState:
			ps.models = append(ps.models, rec)
			continue
		case legacyReplicaKind:
			var lr legacyReplicaRecord
			if err := json.Unmarshal(rec.Data, &lr); err != nil {
				return nil, fmt.Errorf("serve: corrupt replica record for %s: %w", rec.ID, err)
			}
			ps.legacyVersions[lr.Entry.Name] = lr.Entry.Versions
			continue
		}
		p := ps.sessions[rec.ID]
		if rec.Kind != kindCreate && p == nil {
			// A record for an unknown session: the create was compacted away
			// by a delete, or the log predates this schema. Skip rather than
			// refusing to boot.
			continue
		}
		switch rec.Kind {
		case kindCreate:
			var cr createRecord
			if err := json.Unmarshal(rec.Data, &cr); err != nil {
				return nil, fmt.Errorf("serve: corrupt create record for %s: %w", rec.ID, err)
			}
			if p == nil {
				ps.order = append(ps.order, rec.ID)
			}
			ps.sessions[rec.ID] = &pendingSession{name: cr.Name, cfg: cr.Config, pinned: cr.Params, traceID: cr.TraceID}
			// Track the id sequence across every session ever created —
			// including ones later deleted — so new ids never collide.
			var n int
			if _, err := fmt.Sscanf(rec.ID, "s-%d", &n); err == nil && n > ps.maxSeq {
				ps.maxSeq = n
			}
		case kindBag:
			var bag BagRequest
			if err := json.Unmarshal(rec.Data, &bag); err != nil {
				return nil, fmt.Errorf("serve: corrupt bag record for %s: %w", rec.ID, err)
			}
			p.bags = append(p.bags, bag)
		case kindRun:
			p.ran = true
		case kindCancelled:
			var c cancelRecord
			if err := json.Unmarshal(rec.Data, &c); err != nil {
				return nil, fmt.Errorf("serve: corrupt cancelled record for %s: %w", rec.ID, err)
			}
			p.cancelled = &c
		case kindDelete:
			delete(ps.sessions, rec.ID)
			for i, id := range ps.order {
				if id == rec.ID {
					ps.order = append(ps.order[:i:i], ps.order[i+1:]...)
					break
				}
			}
		}
	}
	return ps, nil
}

// applyModelRecords replays model-registry records into the manager's
// registry, in log order: the registry is fully rebuilt (versions, detector
// high-water marks, refit buffers) before any session is rebuilt, so a
// legacy model_ref create always finds its version (see pinLegacyCreates). Replay drives the registry directly —
// no commit persistence, no auto-refit launches — state reconstruction must
// not publish new versions.
func (m *Manager) applyModelRecords(recs []store.Record) error {
	for _, rec := range recs {
		switch rec.Kind {
		case kindModelCreate:
			var cr modelCreateRecord
			if err := json.Unmarshal(rec.Data, &cr); err != nil {
				return fmt.Errorf("serve: corrupt model_create record for %s: %w", rec.ID, err)
			}
			if _, err := m.registry.Create(rec.ID, cr.Scenario, cr.Config, cr.Version, nil); err != nil {
				return fmt.Errorf("serve: restoring model %s: %w", rec.ID, err)
			}
		case kindModelVersion:
			var v registry.Version
			if err := json.Unmarshal(rec.Data, &v); err != nil {
				return fmt.Errorf("serve: corrupt model_version record for %s: %w", rec.ID, err)
			}
			applied, err := m.registry.Publish(rec.ID, v.Provenance, nil)
			if err != nil {
				return fmt.Errorf("serve: restoring model %s version: %w", rec.ID, err)
			}
			if applied.Number != v.Number {
				return fmt.Errorf("serve: model %s version record out of order: logged v%d, replayed as v%d",
					rec.ID, v.Number, applied.Number)
			}
		case kindModelObs:
			var or modelObsRecord
			if err := json.Unmarshal(rec.Data, &or); err != nil {
				return fmt.Errorf("serve: corrupt model_obs record for %s: %w", rec.ID, err)
			}
			if _, err := m.registry.Ingest(rec.ID, or.Lifetimes, nil); err != nil {
				return fmt.Errorf("serve: replaying observations for model %s: %w", rec.ID, err)
			}
		case kindModelState:
			var st registry.EntryState
			if err := json.Unmarshal(rec.Data, &st); err != nil {
				return fmt.Errorf("serve: corrupt model_state record for %s: %w", rec.ID, err)
			}
			if err := m.registry.RestoreEntry(st); err != nil {
				return fmt.Errorf("serve: restoring model %s: %w", rec.ID, err)
			}
		}
	}
	return nil
}

// pinLegacyCreates gives every model_ref session whose create record
// predates logged parameters the parameters of the version its pinned
// reference names; versions lists an entry's published versions. It runs
// once per legacy record: the boot compaction rewrites the record with
// the parameters.
func (ps *parsedStore) pinLegacyCreates(versions func(name string) []registry.Version) error {
	for _, id := range ps.order {
		p := ps.sessions[id]
		if p.cfg.ModelRef == "" || p.pinned != nil {
			continue
		}
		name, num, err := registry.ParseRef(p.cfg.ModelRef)
		vs := versions(name)
		if err != nil || num < 1 || num > len(vs) {
			return fmt.Errorf("serve: restoring session %s: model_ref %s names no known version", id, p.cfg.ModelRef)
		}
		p.pinned = &vs[num-1].Params
	}
	return nil
}

// registryVersions lists an entry's versions on a registry (none for an
// unknown name).
func registryVersions(reg *registry.Registry) func(string) []registry.Version {
	return func(name string) []registry.Version {
		info, _ := reg.Get(name)
		return info.Versions
	}
}

// sortSessionIDs orders session ids by their minted sequence number.
// Concurrent Creates append their records outside the id-minting lock, so
// WAL order can differ from id order; sorting restores creation order.
func sortSessionIDs(order []string) {
	sort.Slice(order, func(i, j int) bool { return sessionIDLess(order[i], order[j]) })
}

// sessionIDLess orders session ids by their sequence number.
func sessionIDLess(x, y string) bool {
	var a, b int
	fmt.Sscanf(x, "s-%d", &a)
	fmt.Sscanf(y, "s-%d", &b)
	if a != b {
		return a < b
	}
	return x < y
}

// attachStore wires the degraded-mode guard around a store and installs it
// as the manager's persistence; it fails on a manager already restored.
func (m *Manager) attachStore(st Store) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.store != nil || len(m.sessions) > 0 {
		return fmt.Errorf("serve: Restore must be called once, on an empty manager")
	}
	// Every write from here on goes through the degraded-mode guard; the
	// inner handle is kept for the recovery probe and compaction, which
	// must reach the real store even while the guard is failing fast.
	m.innerStore = st
	m.store = &guardedStore{m: m, inner: st}
	m.instrumentStore(st)
	return nil
}

// rebuildAll rebuilds and registers the given pending sessions in id order.
func (m *Manager) rebuildAll(sessions map[string]*pendingSession, order []string) error {
	sortSessionIDs(order)
	for _, id := range order {
		s, err := m.rebuild(id, sessions[id])
		if err != nil {
			return fmt.Errorf("serve: restoring session %s: %w", id, err)
		}
		m.mu.Lock()
		m.sessions[id] = s
		m.order = append(m.order, id)
		m.mu.Unlock()
	}
	return nil
}

// bumpSeq raises the manager's id sequence to at least max.
func (m *Manager) bumpSeq(max int) {
	m.mu.Lock()
	if max > m.seq {
		m.seq = max
	}
	m.mu.Unlock()
}

// rearmAutoRefits relaunches pending auto-refits after a compaction: the
// boot one, and the recovery one that ends degraded mode. The pre-crash
// process may have died between refit-readiness and the version commit
// (and a read-only store left refits unserved), and without new ingest
// traffic nothing else would ever publish the pending version. It must
// run only after compaction: a version
// committed between the compactor's Snapshot and the store rewrite would be
// truncated away with the WAL.
func (m *Manager) rearmAutoRefits() {
	for _, info := range m.registry.List() {
		if info.AutoRefit && info.Flagged && info.RefitBuffered >= info.MinRefitSamples {
			m.startAutoRefit(info.Name)
		}
	}
}

// startMaintenance wires online compaction — when the store's WAL crosses
// its configured thresholds it pokes compactCh (nonblocking — the trigger
// runs under the store lock) and the maintain worker rewrites the snapshot
// from live state while the service keeps serving — and starts the
// maintenance goroutine.
func (m *Manager) startMaintenance(st Store) {
	if tr, ok := st.(storeTrigger); ok {
		tr.SetCompactionTrigger(func() {
			select {
			case m.compactCh <- struct{}{}:
			default:
			}
		})
	}
	m.maintWG.Add(1)
	go m.maintain()
}

// Restore attaches a store to an empty manager and rebuilds every session
// from its records: configs are re-built (models re-fitted or fetched from
// cache — deterministic in the persisted recipe), bags re-submitted, and
// every logged run executed again before Restore returns (see replayRun).
// The log holds inputs only, so a session that was mid-run when the
// process died recovers as whatever its inputs produce — normally done —
// exactly as a finished one does; only a recorded cancel stops a replay
// early, at its recorded stop point. After replay the store is compacted,
// so each boot replays the snapshot of live state plus only the WAL
// records appended since the previous boot. A Router restores its shards
// from the same pieces (see Router.Restore), routing each parsed session
// to its hash-placed home shard instead of rebuilding in place.
func (m *Manager) Restore(st Store) error {
	if st == nil {
		return nil
	}
	if err := m.attachStore(st); err != nil {
		return err
	}
	ps, err := parseStoreRecords(st.Records())
	if err != nil {
		return err
	}
	if err := m.applyModelRecords(ps.models); err != nil {
		return err
	}
	// A remote shard's own registry is empty: its legacy creates pin from
	// the replica records of its own log.
	versions := registryVersions(m.registry)
	if m.executor {
		versions = func(name string) []registry.Version { return ps.legacyVersions[name] }
	}
	if err := ps.pinLegacyCreates(versions); err != nil {
		return err
	}
	if err := m.rebuildAll(ps.sessions, ps.order); err != nil {
		return err
	}
	m.bumpSeq(ps.maxSeq)
	if err := m.CompactStore(); err != nil {
		return err
	}
	m.rearmAutoRefits()
	m.startMaintenance(st)
	return nil
}

// rebuild constructs one session from its replayed history.
func (m *Manager) rebuild(id string, p *pendingSession) (*Session, error) {
	cfg := p.cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bcfg, err := cfg.build(m.models, p.pinned)
	if err != nil {
		return nil, err
	}
	svc, err := batch.New(bcfg)
	if err != nil {
		return nil, err
	}
	svc.ProgressEvery = cfg.ProgressEvery
	s := &Session{
		id:       id,
		name:     p.name,
		cfg:      cfg,
		pinned:   p.pinned,
		state:    StateCreated,
		svc:      svc,
		done:     make(chan struct{}),
		restored: true,
		traceID:  p.traceID,
		shard:    m.shard,
	}
	// Replay bags and the run with no store attached: the records already
	// exist, and the request size bounds do not apply to them.
	for _, bag := range p.bags {
		if _, _, err := s.submitBag(bag); err != nil {
			return nil, fmt.Errorf("replaying bag: %w", err)
		}
	}
	if p.ran {
		m.replayRun(s, p.cancelled)
	}
	s.store = m.store
	s.gate = &m.persistGate
	return s, nil
}

// replayRun executes a restored session's logged run on its rebuilt
// service, on the caller's goroutine, through runSession's panic isolation
// and with publishSnapshot installed, so status, progress, report and job
// listings come out as the live run left them — or, for a run the process
// died in, as it would have left them. A recorded cancel stops the replay
// at the same progress boundary the live run stopped at: the engine checks
// the context before each boundary's snapshot, so cancelling from the
// snapshot one interval short of the recorded engine_steps lands exactly
// there. Replay is not a new run: it writes no record, bumps no counter and
// emits no span.
func (m *Manager) replayRun(s *Session, cancelled *cancelRecord) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stop int64
	if cancelled != nil && cancelled.Progress != nil {
		stop = cancelled.Progress.EngineSteps
	}
	every := int64(s.svc.ProgressEvery)
	if every <= 0 {
		every = 4096 // the engine's default cadence
	}
	s.svc.OnSnapshot = func(snap batch.Snapshot) {
		s.publishSnapshot(snap)
		if stop > 0 && snap.Progress.EngineSteps+every >= stop {
			cancel()
		}
	}
	s.svc.SnapshotDetail = func() bool { return false }
	var rep batch.Report
	var err error
	if cancelled == nil || stop > 0 {
		m.sem <- struct{}{}
		rep, err = m.runSession(ctx, s.svc)
	}
	if cancelled != nil {
		// The cancel's own diagnostic stands: it names the instant the live
		// run stopped, and a queued cancel never ran at all.
		s.state, s.runErr = StateCancelled, errors.New(cancelled.Error)
	} else {
		s.settle(rep, err)
	}
	close(s.done)
}

// CompactStore rewrites the store's snapshot from live state, pruning
// deleted sessions and collapsing each survivor to its minimal history.
// The manager calls it at boot after Restore's replay, from the online
// compaction worker when the WAL crosses its thresholds, and from the
// degraded-mode probe on recovery (where the live-state rewrite is what
// heals every record that failed to append while read-only). It takes the
// persist gate exclusively, so no append can interleave between the state
// it captures and the store rewrite.
func (m *Manager) CompactStore() error {
	m.mu.Lock()
	st := m.innerStore
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	m.persistGate.Lock()
	defer m.persistGate.Unlock()
	m.mu.Lock()
	seq := m.seq
	m.mu.Unlock()
	// add captures one record; the first encoding error sticks and fails
	// the compaction before the store is touched.
	var recs []store.Record
	var encErr error
	add := func(kind, id string, v any) {
		var data json.RawMessage
		if v != nil && encErr == nil {
			data, encErr = json.Marshal(v)
		}
		recs = append(recs, store.Record{Kind: kind, ID: id, Data: data})
	}
	// The id counter survives compaction even when the deleted sessions
	// that advanced it do not, so their ids are never minted again.
	add(kindSeq, "", seqRecord{Max: seq})
	// Each model entry collapses to one state record: versions with their
	// provenance, the detector's high-water mark and partial window, and
	// the refit buffer — everything the live ingest history built, without
	// the history itself. Models precede sessions so a replay that applied
	// records strictly in order would still resolve every pinned ref.
	for _, st := range m.registry.Snapshot() {
		add(kindModelState, st.Name, st)
	}
	// Each session collapses to its inputs: create, bags, and the run and
	// cancel it went through.
	for _, s := range m.List() {
		s.mu.Lock()
		// A session claimed by a concurrent Delete is skipped (its record is
		// durable; it just hasn't left the listing yet): re-capturing it
		// would resurrect an acknowledged deletion on the next boot.
		if !s.deleted {
			add(kindCreate, s.id, createRecord{Name: s.name, Config: s.cfg, Params: s.pinned, TraceID: s.traceID})
			for _, bag := range s.bags {
				add(kindBag, s.id, bag)
			}
			if s.state != StateCreated {
				add(kindRun, s.id, nil)
			}
			if s.state == StateCancelled {
				add(kindCancelled, s.id, s.cancelRecord())
			}
		}
		s.mu.Unlock()
	}
	if encErr != nil {
		return encErr
	}
	return st.Compact(recs)
}

// StoreStats returns the attached store's counters, or nil when the
// manager is running without persistence.
func (m *Manager) StoreStats() *store.Stats {
	m.mu.Lock()
	st := m.store
	m.mu.Unlock()
	if st == nil {
		return nil
	}
	stats := st.Stats()
	return &stats
}
