package serve

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
)

// This file implements the server half of the shard protocol: a single
// Manager exposed over HTTP to a Router in another process. The protocol
// is the public /api surface — so every session request a RemoteBackend
// forwards or makes hits exactly the handlers a client would, completion
// included (a proxy's Done follows the session's event stream) — plus a
// small /shard namespace for what the public API deliberately lacks:
// creates under a router-minted id, liveness pings for the supervisor, a
// stats/cursor snapshot for scatter-gather aggregation, and the registry
// replication log's push endpoint.

// NewShardManager returns a Manager configured as a remote executor shard:
// it resolves model references against a replication-fed replica instead
// of an owned registry, since the control plane lives in the router's
// process and pushes resolution state here via POST /shard/replication.
func NewShardManager(parallelism int) *Manager {
	m := NewManager(parallelism)
	m.replica = registry.NewReplica()
	m.resolver = m.replica
	return m
}

// SetShardIndex records which router slot this shard serves; it only
// labels diagnostics (ping payloads, session records, metric series),
// never placement.
func (m *Manager) SetShardIndex(i int) {
	m.shard = i
	m.obsInit()
}

// ShardInfo is the GET /shard/info payload: one shard's counters, health,
// and cursors, consumed by the router's scatter-gather stats and by the
// replicator to decide what catch-up a reconnecting shard needs.
type ShardInfo struct {
	Sessions map[State]int `json:"sessions"`
	Health   Health        `json:"health"`
	Store    *store.Stats  `json:"store,omitempty"`
	// IDSeq is the shard's session-id high-water mark (restored from its
	// WAL), so a router reconnecting to a restarted shard never re-mints an
	// id the shard already knows.
	IDSeq int `json:"id_seq"`
	// ReplicaEpoch/ReplicaSeq is the shard's replication cursor.
	ReplicaEpoch uint64 `json:"replica_epoch"`
	ReplicaSeq   uint64 `json:"replica_seq"`
}

// shardInfo assembles the local Manager's ShardInfo.
func (m *Manager) shardInfo() (ShardInfo, error) {
	info := ShardInfo{
		Sessions: m.Stats().Sessions,
		Health:   m.Health(),
		Store:    m.StoreStats(),
	}
	m.mu.Lock()
	info.IDSeq = m.seq
	m.mu.Unlock()
	if m.replica != nil {
		info.ReplicaEpoch, info.ReplicaSeq = m.replica.Cursor()
	}
	return info, nil
}

// shardCreateRequest is the POST /shard/sessions body: a create under an
// id the router minted from its global sequence.
type shardCreateRequest struct {
	ID     string        `json:"id"`
	Name   string        `json:"name,omitempty"`
	Config SessionConfig `json:"config"`
}

// replicationPush is the POST /shard/replication body: a batch of registry
// log entries under the control plane's epoch.
type replicationPush struct {
	Epoch   uint64              `json:"epoch"`
	Entries []registry.LogEntry `json:"entries"`
}

// replicationAck is the response: the shard's cursor after applying.
type replicationAck struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// shardAPI serves the /shard namespace over one Manager.
type shardAPI struct {
	m *Manager
}

// ShardHandler exposes m over the shard protocol: the full public /api
// surface plus the /shard control endpoints. It is what
// `batchsvc -shard-server` serves, and what a RemoteBackend speaks to.
func ShardHandler(m *Manager) http.Handler {
	sa := &shardAPI{m: m}
	mux := http.NewServeMux()
	mux.Handle("/api/", NewAPI(m).Handler())
	mux.HandleFunc("POST /shard/sessions", sa.handleCreate)
	mux.HandleFunc("GET /shard/ping", sa.handlePing)
	mux.HandleFunc("GET /shard/info", sa.handleInfo)
	mux.HandleFunc("POST /shard/replication", sa.handleReplication)
	// The shard process serves its own metrics, so a fleet is scraped
	// per-process; withShardTrace threads the router's X-Trace-Id into the
	// /shard endpoints (the mounted /api surface extracts its own).
	mux.Handle("GET /metrics", obs.Default().Handler())
	return withShardTrace(jsonErrors(mux))
}

func (sa *shardAPI) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req shardCreateRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, errf(http.StatusBadRequest, "shard create needs a router-minted id"))
		return
	}
	s, err := sa.m.createSession(r.Context(), req.ID, req.Name, req.Config)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Status())
}

// handlePing is GET /shard/ping: the supervisor's liveness check. It
// answers from memory only — a degraded (read-only) shard is alive.
func (sa *shardAPI) handlePing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "shard": sa.m.shard})
}

func (sa *shardAPI) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, _ := sa.m.shardInfo()
	writeJSON(w, http.StatusOK, info)
}

// handleReplication is POST /shard/replication: the control plane pushes
// registry log entries; the shard applies them to its replica and persists
// each (best effort) so a restart can resolve pinned references before the
// control plane reconnects and replays the delta. Apply is authoritative;
// a failed append only costs warm-start coverage, never resolution state.
func (sa *shardAPI) handleReplication(w http.ResponseWriter, r *http.Request) {
	if sa.m.replica == nil {
		writeErr(w, http.StatusConflict, errf(http.StatusConflict,
			"shard has no replica: not built with NewShardManager"))
		return
	}
	var push replicationPush
	if err := decodeStrict(r, &push); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	for _, e := range push.Entries {
		if err := sa.m.replica.ApplyEntry(push.Epoch, e); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		sa.m.persistReplicaEntry(push.Epoch, e)
	}
	epoch, seq := sa.m.replica.Cursor()
	writeJSON(w, http.StatusOK, replicationAck{Epoch: epoch, Seq: seq})
}
