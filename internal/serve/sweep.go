package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/batch"
	"repro/internal/placement"
	"repro/internal/trace"
)

// SweepRequest fans one workload out across a scenario grid — the cartesian
// product of VM types, zones, and policies, as in the paper's Figures 8-9
// comparisons — running every cell as its own session on the worker pool
// and aggregating the reports.
type SweepRequest struct {
	VMTypes  []string `json:"vm_types"`
	Zones    []string `json:"zones,omitempty"`    // default: the session zone us-east1-b
	Policies []string `json:"policies,omitempty"` // default: ["reuse"]
	// VMs is the per-cell cluster size. When GangSize is 0, each cell
	// derives it from the bag's application and its own VM type
	// (ceil(cores / vm cpus)), so different VM types stay comparable.
	VMs      int `json:"vms"`
	GangSize int `json:"gang_size,omitempty"`
	// HotSpareTTL, checkpointing knobs, and the model spec apply to every
	// cell, as in SessionConfig.
	HotSpareTTL       *float64     `json:"hot_spare_ttl,omitempty"`
	CheckpointDelta   float64      `json:"checkpoint_delta,omitempty"`
	CheckpointStep    float64      `json:"checkpoint_step,omitempty"`
	WarningCheckpoint bool         `json:"warning_checkpoint,omitempty"`
	Model             *ModelParams `json:"model,omitempty"`
	Fit               *FitSpec     `json:"fit,omitempty"`
	// ModelRefs, when set, adds a fourth (innermost) grid dimension: each
	// cell pins one of the listed registry references, so a single sweep
	// can compare, say, "us-east1-b@latest" against a pinned older
	// "us-east1-b@v1" under otherwise identical scenarios. It is exclusive
	// with Model and Fit; each cell resolves and pins its reference at
	// creation time, exactly as sessions do.
	ModelRefs []string `json:"model_refs,omitempty"`
	// Seed is the per-cell service seed. Every cell uses the same seed and
	// the same bag, so cells differ only in their scenario.
	Seed uint64 `json:"seed"`
	// Bag is the workload each cell runs.
	Bag BagRequest `json:"bag"`
}

// SweepCell is one scenario cell's outcome. ModelRef is the reference the
// request named for this cell (the cell's session config carries the
// pinned "name@vN" form it resolved to).
type SweepCell struct {
	VMType    string        `json:"vm_type"`
	Zone      string        `json:"zone"`
	Policy    string        `json:"policy"`
	ModelRef  string        `json:"model_ref,omitempty"`
	SessionID string        `json:"session_id"`
	Error     string        `json:"error,omitempty"`
	Report    *batch.Report `json:"report,omitempty"`
}

// SweepReport aggregates a sweep: all cells in grid order plus the indices
// of the cheapest (per job) and fastest (makespan) successful cells.
// Partial marks a sweep in which one or more cells failed because their
// home shard was unreachable (see ErrShardUnavailable): the surviving
// cells' reports — and the cheapest/fastest picks among them — are valid,
// but the grid is incomplete.
type SweepReport struct {
	Cells    []SweepCell `json:"cells"`
	Cheapest string      `json:"cheapest_session,omitempty"`
	Fastest  string      `json:"fastest_session,omitempty"`
	Partial  bool        `json:"partial,omitempty"`
}

// Sweep runs the grid to completion and aggregates the results. See
// SweepCtx.
func (m *Manager) Sweep(req SweepRequest) (SweepReport, error) {
	return m.SweepCtx(context.Background(), req)
}

// SweepCtx runs the grid to completion and aggregates the results. Cells
// are created and reported in grid order (vm_types outermost, model refs
// innermost), so the aggregation is order-stable regardless of which cell
// finishes first. A cancelled ctx (client gone) stops creating new cells;
// already-started cells run to completion as ordinary sessions.
func (m *Manager) SweepCtx(ctx context.Context, req SweepRequest) (SweepReport, error) {
	cells, todo, err := expandSweep(m, req)
	if err != nil {
		return SweepReport{}, err
	}
	for k, o := range m.startCells(ctx, todo, req.Bag)() {
		cells[todo[k].cell].apply(o)
	}
	return sweepReport(cells, false), nil
}

// SweepCtx is a scatter-gather. The router resolves every cell's model
// reference on the control plane and mints the cells' ids in grid order,
// the ids single creates would get, then runs each home shard's cells as
// one group, all groups at once: a local group on its Manager, a remote
// one as a single POST /shard/sweep. A group whose shard cannot be reached
// marks its cells and the report partial. A remote shard refuses a group
// whose ids are not above its id high-water mark (409, as for a create);
// the router adopts the mark and runs those cells again under fresh ids,
// for as long as each refusal is the mark's doing (see Router.adopt).
func (r *Router) SweepCtx(ctx context.Context, req SweepRequest) (SweepReport, error) {
	cells, todo, err := expandSweep(r.control(), req)
	if err != nil {
		return SweepReport{}, err
	}
	partial := false
	for len(todo) > 0 {
		groups := make(map[int][]shardCreateRequest) // by home shard, grid order
		for _, c := range todo {
			c.ID = r.nextID()
			home := placement.Shard(c.ID, len(r.slots))
			groups[home] = append(groups[home], c)
		}
		todo = nil
		var mu sync.Mutex
		var wg sync.WaitGroup
		for shard, group := range groups {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs, err := r.slots[shard].sweep(ctx, shardSweepRequest{Cells: group, Bag: req.Bag})
				refused := r.adopt(err, group[0].ID)
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					for k, c := range group {
						cells[c.cell].apply(outs[k])
					}
				case refused:
					todo = append(todo, group...)
				default:
					for _, c := range group {
						cells[c.cell].Error = err.Error()
					}
					partial = partial || errors.Is(err, ErrShardUnavailable)
				}
			}()
		}
		wg.Wait()
		sort.Slice(todo, func(i, j int) bool { return todo[i].cell < todo[j].cell })
	}
	return sweepReport(cells, partial), nil
}

// Sweep runs the grid to completion and aggregates the results.
func (r *Router) Sweep(req SweepRequest) (SweepReport, error) {
	return r.SweepCtx(context.Background(), req)
}

// expandSweep validates req and expands its grid into cells in grid
// order, plus, for each cell to run, the create that runs it (id left
// empty): its config and name, the model reference resolved and pinned on
// m, the control plane. A cell whose reference does not resolve carries
// the error and gets no create.
func expandSweep(m *Manager, req SweepRequest) ([]SweepCell, []shardCreateRequest, error) {
	if len(req.VMTypes) == 0 {
		return nil, nil, errf(http.StatusBadRequest, "sweep needs at least one vm_type")
	}
	if len(req.Zones) == 0 {
		req.Zones = []string{string(trace.USEast1B)}
	}
	if len(req.Policies) == 0 {
		req.Policies = []string{PolicyReuse}
	}
	if len(req.ModelRefs) > 0 && (req.Model != nil || req.Fit != nil) {
		return nil, nil, errf(http.StatusBadRequest,
			"model_refs is exclusive with \"model\" and \"fit\": each cell has one model source")
	}
	// With no per-cell refs, every cell shares the request's model spec;
	// the single empty ref keeps the grid loop uniform.
	refs := req.ModelRefs
	if len(refs) == 0 {
		refs = []string{""}
	}
	app, err := validateBagRequest(req.Bag)
	if err == nil {
		err = req.Bag.checkSize()
	}
	if err != nil {
		return nil, nil, errf(http.StatusBadRequest, "bag: %v", err)
	}
	if err := (SessionConfig{VMs: req.VMs, Fit: req.Fit}).checkSizes(); err != nil {
		return nil, nil, errf(http.StatusBadRequest, "%v", err)
	}
	var cells []SweepCell
	var creates []shardCreateRequest
	for _, vt := range req.VMTypes {
		for _, zone := range req.Zones {
			for _, pol := range req.Policies {
				for _, ref := range refs {
					cell := SweepCell{VMType: vt, Zone: zone, Policy: pol, ModelRef: ref}
					gangSize := req.GangSize
					if gangSize == 0 {
						gangSize = batch.GangSizeFor(app, trace.VMType(vt))
					}
					cfg := SessionConfig{
						VMType:            vt,
						Zone:              zone,
						VMs:               req.VMs,
						GangSize:          gangSize,
						Policy:            pol,
						HotSpareTTL:       req.HotSpareTTL,
						CheckpointDelta:   req.CheckpointDelta,
						CheckpointStep:    req.CheckpointStep,
						WarningCheckpoint: req.WarningCheckpoint,
						Seed:              req.Seed,
						Model:             req.Model,
						Fit:               req.Fit,
						ModelRef:          ref,
					}
					name := fmt.Sprintf("sweep/%s/%s/%s", vt, zone, pol)
					if ref != "" {
						name += "/" + ref
					}
					if cfg, pinned, err := m.resolveModel(cfg); err != nil {
						cell.Error = err.Error()
					} else {
						creates = append(creates, shardCreateRequest{Name: name, Config: cfg, Params: pinned, cell: len(cells)})
					}
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells, creates, nil
}

// shardSweepRequest is one sweep group, the POST /shard/sweep body: the
// cells homed on one shard, in grid order, and the bag every cell runs.
type shardSweepRequest struct {
	Cells []shardCreateRequest `json:"cells"`
	Bag   BagRequest           `json:"bag"`
}

// cellOutcome is what running one cell yields: the session it ran as
// (empty when its create failed), and its error or its report.
type cellOutcome struct {
	SessionID string        `json:"session_id,omitempty"`
	Error     string        `json:"error,omitempty"`
	Report    *batch.Report `json:"report,omitempty"`
}

// apply records a cell's outcome.
func (c *SweepCell) apply(o cellOutcome) {
	c.SessionID, c.Error, c.Report = o.SessionID, o.Error, o.Report
}

// sweep runs one sweep group to completion on this manager; a local group
// cannot fail as a whole.
func (m *Manager) sweep(ctx context.Context, req shardSweepRequest) ([]cellOutcome, error) {
	return m.startCells(ctx, req.Cells, req.Bag)(), nil
}

// startCells creates, loads and starts each cell in order, under its id
// (one the manager mints when it is empty), and returns a func that waits
// for the started cells and collects their outcomes. A cell that fails
// after its create is deleted: the client asked for the sweep's
// aggregate, not for a half-configured (and durably persisted) session.
func (m *Manager) startCells(ctx context.Context, cells []shardCreateRequest, bag BagRequest) func() []cellOutcome {
	outs := make([]cellOutcome, len(cells))
	started := make([]*Session, len(cells))
	for i, c := range cells {
		s, err := m.createSession(ctx, c.ID, c.Name, c.Config, c.Params)
		if err == nil {
			outs[i].SessionID = s.ID()
			if _, _, err = s.SubmitBag(bag); err == nil {
				err = m.Run(s)
			}
			if err != nil {
				_ = m.Delete(s.ID())
			}
		}
		if err != nil {
			outs[i].Error = err.Error()
			continue
		}
		started[i] = s
	}
	return func() []cellOutcome {
		for i, s := range started {
			if s == nil {
				continue
			}
			s.Wait()
			if rep, err := s.Report(); err != nil {
				outs[i].Error = err.Error()
			} else {
				outs[i].Report = &rep
			}
		}
		return outs
	}
}

// sweepReport aggregates the cells in grid order and picks the cheapest
// (per job) and fastest (makespan) cells among those that completed.
func sweepReport(cells []SweepCell, partial bool) SweepReport {
	rep := SweepReport{Cells: cells, Partial: partial}
	bestCost, bestMakespan := 0.0, 0.0
	for _, c := range cells {
		r := c.Report
		if r == nil {
			continue
		}
		if rep.Cheapest == "" || r.CostPerJob < bestCost {
			rep.Cheapest, bestCost = c.SessionID, r.CostPerJob
		}
		if rep.Fastest == "" || r.Makespan < bestMakespan {
			rep.Fastest, bestMakespan = c.SessionID, r.Makespan
		}
	}
	return rep
}
