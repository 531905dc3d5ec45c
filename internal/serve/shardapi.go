package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/ids"
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
// and its boot id sync (Router.SyncRemotes).
type ShardInfo struct {
	Sessions map[State]int `json:"sessions"`
	Health   Health        `json:"health"`
	Store    *store.Stats  `json:"store,omitempty"`
	// IDSeq is the shard's session-id high-water mark (restored from its
	// WAL): the highest id it ever created or claimed (see claimIDs).
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
	mux := newJSONMux()
	mux.Handle("/api/", NewAPI(m).Handler())
	mux.HandleFunc("POST /shard/sessions", sa.handleCreate)
	mux.HandleFunc("POST "+shardSweepPath, sa.handleSweep)
	mux.HandleFunc("GET /shard/ping", sa.handlePing)
	mux.HandleFunc("GET /shard/info", sa.handleInfo)
	// The shard process serves its own metrics, so a fleet is scraped
	// per-process; withShardTrace threads the router's X-Trace-Id into the
	// /shard endpoints (the mounted /api surface extracts its own).
	mux.Handle("GET /metrics", obs.Default().Handler())
	return withShardTrace(mux)
}

func (sa *shardAPI) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req shardCreateRequest
	if err := decodeStrict(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	n, ok := ids.Parse("s-", req.ID)
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("shard create needs a router-minted id, got %q", req.ID))
		return
	}
	if err := sa.m.claimIDs(n, n); err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	s, err := sa.m.createSession(r.Context(), req.ID, req.Name, req.Config, req.Params)
	if err != nil {
		writeErr(w, httpCode(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Status())
}

// claimIDs admits router-minted ids first..last only above the shard's id
// high-water mark, and raises the mark to last in the same critical
// section, so no id is admitted twice, deleted ones included; otherwise it
// answers 409 with the mark, which the router adopts (Router.adopt).
func (m *Manager) claimIDs(first, last int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if first <= m.seq {
		return &apiError{code: http.StatusConflict, idSeq: m.seq,
			err: fmt.Errorf("session id %s is at or below shard %d's id high-water mark %d", ids.Padded("s-", first, 3), m.shard, m.seq)}
	}
	m.seq = last
	return nil
}

// shardSweepPath is the route a sweep group is sent to.
const shardSweepPath = "/shard/sweep"

// handleSweep is POST /shard/sweep: it runs one sweep group — creates under
// router-minted ids, the bag, the runs — and answers with each cell's
// outcome in request order. A group is refused whole, before anything is
// created, for an invalid bag, an oversized cell or ids that are not
// router-minted and strictly rising (400), and for ids at or below the
// shard's id high-water mark (409, see claimIDs). The headers go out once
// every cell is created and started, which is all the router's per-op
// deadline bounds; the body follows when the runs are over.
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

// checkSweepGroup refuses a sweep group this shard cannot run as sent, and
// claims the group's ids when it can.
func (m *Manager) checkSweepGroup(req shardSweepRequest) error {
	_, err := validateBagRequest(req.Bag)
	if err == nil {
		err = req.Bag.checkSize()
	}
	if err != nil {
		return errf(http.StatusBadRequest, "bag: %v", err)
	}
	last := 0
	for k, c := range req.Cells {
		n, ok := ids.Parse("s-", c.ID)
		if !ok || n <= last {
			return errf(http.StatusBadRequest, "shard sweep needs strictly rising router-minted ids: cell %d has %q", k, c.ID)
		}
		if err := c.Config.checkSizes(); err != nil {
			return errf(http.StatusBadRequest, "cell %s: %v", c.ID, err)
		}
		last = n
	}
	if len(req.Cells) == 0 {
		return nil
	}
	first, _ := ids.Parse("s-", req.Cells[0].ID)
	return m.claimIDs(first, last)
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
