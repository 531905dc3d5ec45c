package serve

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
	"repro/internal/store"
)

// This file implements the server half of the shard protocol: a single
// Manager exposed over HTTP to a Router in another process. The protocol
// is the public /api surface — so every session request a RemoteBackend
// forwards hits exactly the handler a client would — plus a small /shard
// namespace for what the public API deliberately lacks: creates under a
// router-minted id (carrying a model_ref's pinned parameters), a sweep's
// group of such creates run to completion in one request, liveness pings
// for the supervisor, and a stats snapshot for scatter-gather aggregation.

// NewShardManager returns a Manager configured as a remote executor shard.
// The control plane lives in the router's process and resolves every model
// reference there, so a create reaches this shard with the pinned
// version's parameters and the shard keeps no model entries of its own.
func NewShardManager(parallelism int) *Manager {
	m := NewManager(parallelism)
	m.executor = true
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
// and id high-water mark, consumed by the router's scatter-gather stats
// and its id tick.
type ShardInfo struct {
	Sessions map[State]int `json:"sessions"`
	Health   Health        `json:"health"`
	Store    *store.Stats  `json:"store,omitempty"`
	// IDSeq is the shard's session-id high-water mark (restored from its
	// WAL), so a router reconnecting to a restarted shard never re-mints an
	// id the shard already knows.
	IDSeq int `json:"id_seq"`
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
	return info, nil
}

// shardCreateRequest is the POST /shard/sessions body: a create under an
// id the router minted from its global sequence. A model_ref config comes
// pinned ("name@vN"), with Params set to that version's parameters.
type shardCreateRequest struct {
	ID     string        `json:"id"`
	Name   string        `json:"name,omitempty"`
	Config SessionConfig `json:"config"`
	Params *ModelParams  `json:"params,omitempty"`
	// cell is a sweep cell's index in its grid, kept by the router that
	// sends the create in a sweep group; it never goes on the wire.
	cell int
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
	mux.HandleFunc("POST "+shardSweepPath, sa.handleSweep)
	mux.HandleFunc("GET /shard/ping", sa.handlePing)
	mux.HandleFunc("GET /shard/info", sa.handleInfo)
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
	s, err := sa.m.createSession(r.Context(), req.ID, req.Name, req.Config, req.Params)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Status())
}

// shardSweepPath is the route a sweep group is sent to.
const shardSweepPath = "/shard/sweep"

// handleSweep is POST /shard/sweep: it runs one sweep group — creates under
// router-minted ids, the bag, the runs — and answers with each cell's
// outcome in request order. A group is refused whole, before anything is
// created, for an invalid bag, a missing id or a cell larger than the size
// bounds (400) and for an id this shard already holds (409: the router's
// id sequence is behind this shard's). The headers go out once every cell is created and started,
// which is all the router's per-op deadline bounds; the body follows when
// the runs are over.
func (sa *shardAPI) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req shardSweepRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := sa.m.checkSweepGroup(req); err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	finish := sa.m.startCells(r.Context(), req.Cells, req.Bag)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = http.NewResponseController(w).Flush()
	_ = json.NewEncoder(w).Encode(map[string][]cellOutcome{"cells": finish()})
}

// checkSweepGroup refuses a sweep group this shard cannot run as sent.
func (m *Manager) checkSweepGroup(req shardSweepRequest) error {
	_, err := validateBagRequest(req.Bag)
	if err == nil {
		err = req.Bag.checkSize()
	}
	if err != nil {
		return errf(http.StatusBadRequest, "bag: %v", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range req.Cells {
		if c.ID == "" {
			return errf(http.StatusBadRequest, "shard sweep needs a router-minted id for every cell")
		}
		if err := c.Config.checkSizes(); err != nil {
			return errf(http.StatusBadRequest, "cell %s: %v", c.ID, err)
		}
		if m.sessions[c.ID] != nil || m.creating[c.ID] {
			return errf(http.StatusConflict, "session %s already exists on shard %d", c.ID, m.shard)
		}
	}
	return nil
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
