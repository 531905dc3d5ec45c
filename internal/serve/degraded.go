package serve

// Degraded-mode machinery: when a durable append fails persistently, the
// service flips read-only instead of dying — mutating endpoints return 503
// with Retry-After, in-flight sessions finish in memory (a cancel made
// meanwhile is flagged unpersisted), and a background probe recovers the
// store and heals the missed records by rewriting the snapshot from live
// state.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/store"
)

// ErrDegraded marks persistence failures while the service is (or just
// became) degraded read-only. Mutating endpoints map it to 503 with a
// Retry-After header and the stable "error" body.
var ErrDegraded = errors.New("store degraded; service is read-only")

// degradedRetryAfter is the Retry-After hint (seconds) on 503 responses:
// the probe runs about once a second, so a client retrying in a few
// seconds lands after several recovery attempts.
const degradedRetryAfter = 5

// degradedErr wraps err as a 503 with Retry-After.
func degradedErr(err error) error {
	return &apiError{code: http.StatusServiceUnavailable, retryAfter: degradedRetryAfter, err: err}
}

// storeRecoverer is the optional store interface the probe uses to retry a
// poisoned WAL rollback (store.Log implements it).
type storeRecoverer interface{ Recover() error }

// storeTrigger is the optional store interface carrying the online
// compaction callback (store.Log implements it).
type storeTrigger interface{ SetCompactionTrigger(func()) }

// guardedStore wraps the manager's real store with degraded-mode
// accounting: while degraded every Append fails fast with ErrDegraded
// (read-only), and the first real append failure is what flips the mode.
// The other methods delegate untouched; recovery and compaction go through
// the inner store directly.
type guardedStore struct {
	m     *Manager
	inner Store
}

func (g *guardedStore) Records() []store.Record { return g.inner.Records() }
func (g *guardedStore) Stats() store.Stats      { return g.inner.Stats() }
func (g *guardedStore) Compact(records []store.Record) error {
	return g.inner.Compact(records)
}

func (g *guardedStore) Append(kind, id string, v any) (store.Record, error) {
	if g.m.isDegraded() {
		return store.Record{}, fmt.Errorf("%w", ErrDegraded)
	}
	rec, err := g.inner.Append(kind, id, v)
	if err != nil {
		g.m.enterDegraded(err)
		return rec, fmt.Errorf("%w (%v)", ErrDegraded, err)
	}
	return rec, nil
}

// Health is the service's fault status for GET /api/stats.
type Health struct {
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
	Since    string `json:"since,omitempty"`
	// UnpersistedSessions lists sessions whose cancel could not be appended
	// while degraded; the recovery compaction heals them.
	UnpersistedSessions []string `json:"unpersisted_sessions,omitempty"`
}

// Health reports whether the service is degraded and which sessions have
// state the store has not yet seen.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{Degraded: m.degraded, Reason: m.degradedReason}
	if m.degraded {
		h.Since = m.degradedSince.UTC().Format(time.RFC3339)
	}
	for id := range m.unpersisted {
		h.UnpersistedSessions = append(h.UnpersistedSessions, id)
	}
	return h
}

// rlockPersistGate takes the persist gate's read side for one
// persist-then-apply critical section; the returned func releases it.
// Acquire it before any session, registry, or manager lock, and never hold
// it across a blocking wait.
func (m *Manager) rlockPersistGate() func() {
	m.persistGate.RLock()
	return m.persistGate.RUnlock
}

func (m *Manager) isDegraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// enterDegraded flips the service read-only (idempotent) and starts the
// recovery probe.
func (m *Manager) enterDegraded(cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.degraded {
		return
	}
	m.degraded = true
	m.degradedReason = cause.Error()
	m.degradedSince = time.Now()
	m.slogger().Warn("entering degraded read-only mode", "reason", cause.Error())
	if !m.probing {
		m.probing = true
		m.maintWG.Add(1)
		go m.probeLoop()
	}
}

// markUnpersisted flags a session whose applied state could not be
// persisted (a cancel during degraded mode).
func (m *Manager) markUnpersisted(s *Session) {
	s.mu.Lock()
	s.unpersisted = true
	s.mu.Unlock()
	m.mu.Lock()
	m.unpersisted[s.id] = true
	m.mu.Unlock()
}

// SetProbeInterval tunes how often the degraded-mode probe retries the
// store (default 1s). Call before the manager serves traffic.
func (m *Manager) SetProbeInterval(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d > 0 {
		m.probeEvery = d
	}
}

func (m *Manager) probeInterval() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.probeEvery
}

// probeLoop retries the store until an append sticks, then heals and
// clears degraded mode. One instance runs at a time; it exits on success
// or manager close.
func (m *Manager) probeLoop() {
	defer m.maintWG.Done()
	t := time.NewTicker(m.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
			if m.tryRecover() {
				return
			}
		}
	}
}

// tryRecover makes one recovery attempt: un-poison the WAL if needed,
// verify an append sticks, then rewrite the snapshot from live state —
// which re-records everything that happened (or failed to persist) while
// degraded, so no bounded journal of missed records is needed.
func (m *Manager) tryRecover() bool {
	m.mu.Lock()
	st := m.innerStore
	m.mu.Unlock()
	if st == nil {
		return false
	}
	if r, ok := st.(storeRecoverer); ok {
		if err := r.Recover(); err != nil {
			return false
		}
	}
	if _, err := st.Append(kindNoop, "", nil); err != nil {
		return false
	}
	if err := m.CompactStore(); err != nil {
		m.slogger().Error("degraded recovery compaction failed", "err", err)
		return false
	}
	m.exitDegraded()
	return true
}

// exitDegraded clears the degraded flag and the unpersisted markers (the
// recovery compaction just captured every session's live state), and
// re-arms any auto-refit that went unserved while read-only.
func (m *Manager) exitDegraded() {
	m.mu.Lock()
	ids := make([]string, 0, len(m.unpersisted))
	for id := range m.unpersisted {
		ids = append(ids, id)
	}
	m.unpersisted = make(map[string]bool)
	m.degraded = false
	m.degradedReason = ""
	m.probing = false
	sessions := m.sessions
	var healed []*Session
	for _, id := range ids {
		if s := sessions[id]; s != nil {
			healed = append(healed, s)
		}
	}
	m.mu.Unlock()
	for _, s := range healed {
		s.mu.Lock()
		s.unpersisted = false
		s.mu.Unlock()
	}
	m.slogger().Info("store recovered; leaving degraded mode", "healed_sessions", len(healed))
	m.rearmAutoRefits()
}

// maintain is the online-compaction worker: it drains the store's
// threshold trigger and rewrites the snapshot from live state, retrying on
// failure. It exits on manager close.
func (m *Manager) maintain() {
	defer m.maintWG.Done()
	var retry <-chan time.Time
	for {
		select {
		case <-m.stopCh:
			return
		case <-m.compactCh:
		case <-retry:
		}
		retry = nil
		if err := m.CompactStore(); err != nil {
			m.slogger().Error("online compaction failed", "err", err)
			retry = time.After(m.probeInterval())
		}
	}
}

// Close stops the manager's background workers (online compaction and the
// degraded-mode probe). It does not wait for session runs; use Wait. Safe
// to call multiple times.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.stopCh) })
	m.maintWG.Wait()
}
