package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Replication-traffic counters. Lag itself is computed at scrape time
// from the two Cursor()s (the router knows both ends); these count the
// flow so a stalled replica is distinguishable from an idle registry.
var (
	replAppends = obs.Default().Counter("batchsvc_replication_appends_total",
		"Replication log entries appended by the control plane.")
	replApplies = obs.Default().Counter("batchsvc_replication_applies_total",
		"Replication log entries applied by replicas in this process (duplicates skipped not counted).")
)

// This file implements the replication log that carries registry state to
// shards in other processes. The in-process fan-out (replica.go) pushes
// *core.Model pointers under the registry lock — free locally, impossible
// across a process boundary. The Log instead assigns every mutation a
// sequence number and keeps, per entry, only the latest wire-serializable
// state (versions carry their bathtub parameters in provenance, so the
// receiving side rebuilds the models with Params.Model()). A remote
// replica records the (epoch, seq) cursor of the last push it applied;
// after a disconnect — shard crash, partition, restart on either side —
// catch-up is one Since(cursor) exchange, not a replayed history.
//
// The epoch identifies one control-plane incarnation: sequence numbers are
// only comparable within an epoch, and a restarted control plane (which
// rebuilds its log from the WAL with fresh numbering) starts a new epoch,
// forcing reconnecting replicas to take a full Since(0) push instead of
// trusting a cursor from the previous life.

// LogEntry is one entry's full resolution state at a log position: the
// wire form of Update. Seq orders entries within an epoch; an entry's
// state at a higher Seq always supersedes the same entry at a lower one.
type LogEntry struct {
	Seq      uint64    `json:"seq"`
	Name     string    `json:"name"`
	Scenario Scenario  `json:"scenario"`
	Versions []Version `json:"versions"`
}

// Log is the sequence-numbered replication log of one control-plane
// registry. Because each Update carries an entry's full state, the log
// retains only the latest entry per name — bounded by the number of
// registry entries, not mutation history — while Since still returns
// exactly what a replica at any cursor is missing.
type Log struct {
	mu     sync.Mutex
	epoch  uint64
	seq    uint64
	latest map[string]LogEntry
}

// NewLog returns an empty log under a fresh epoch.
func NewLog() *Log {
	return &Log{
		epoch:  uint64(time.Now().UnixNano()),
		latest: make(map[string]LogEntry),
	}
}

// Append records one replication update at the next sequence number and
// returns the log entry. Call it from the registry's SetOnApply callback,
// so log order is commit order.
func (l *Log) Append(u Update) LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e := LogEntry{Seq: l.seq, Name: u.Name, Scenario: u.Scenario, Versions: u.Versions}
	l.latest[u.Name] = e
	replAppends.Inc()
	return e
}

// Since returns every entry whose state changed after the cursor, in
// sequence order — the catch-up payload for a replica at (l.epoch, after).
// Since(0) is the full state.
func (l *Log) Since(after uint64) []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []LogEntry
	for _, e := range l.latest {
		if e.Seq > after {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Cursor returns the log's epoch and current sequence number.
func (l *Log) Cursor() (epoch, seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.seq
}

// ApplyEntry installs one replicated log entry, rebuilding the entry's
// models from the version provenance parameters. epoch is the control
// plane's epoch for this push: a new epoch invalidates the replica's
// cursor (full resync in progress), so per-entry regression refusal is
// suspended for it — within an epoch, an entry at a lower or equal seq
// than the one already applied is a duplicate and is skipped. An entry
// with no versions is refused: every registry entry is created with v1,
// and resolution indexes the latest version.
func (r *Replica) ApplyEntry(epoch uint64, e LogEntry) error {
	if len(e.Versions) == 0 {
		return fmt.Errorf("replica: entry %q carries no versions", e.Name)
	}
	models := make([]*core.Model, len(e.Versions))
	for i := range e.Versions {
		m, err := e.Versions[i].Params.Model()
		if err != nil {
			return fmt.Errorf("replica: rebuilding model %s@v%d: %w", e.Name, e.Versions[i].Number, err)
		}
		models[i] = m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.entries[e.Name]; cur != nil && epoch == r.epoch && e.Seq <= cur.seq {
		return nil
	}
	if r.epoch != epoch {
		// New control-plane incarnation: adopt its epoch. Entries from the
		// old epoch stay resolvable until superseded by the resync push.
		r.epoch = epoch
	}
	r.entries[e.Name] = &replicaEntry{
		scenario: e.Scenario,
		versions: e.Versions,
		models:   models,
		seq:      e.Seq,
	}
	if e.Seq > r.seq {
		r.seq = e.Seq
	}
	replApplies.Inc()
	return nil
}

// Cursor returns the epoch and highest sequence number the replica has
// applied — what it reports to the control plane to request catch-up.
func (r *Replica) Cursor() (epoch, seq uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch, r.seq
}

// Snapshot returns the replica's entries as log entries under its current
// epoch, ordered by name for determinism — the persistence form: a shard
// process snapshots its replica so a restart can resolve pinned references
// before the control plane reconnects and replays the delta.
func (r *Replica) Snapshot() (epoch uint64, entries []LogEntry) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	entries = make([]LogEntry, 0, len(names))
	for _, name := range names {
		e := r.entries[name]
		entries = append(entries, LogEntry{
			Seq: e.seq, Name: name, Scenario: e.scenario, Versions: e.versions,
		})
	}
	return r.epoch, entries
}
