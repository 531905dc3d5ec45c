package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// referenceReports computes the reports of the first n operations in
// process, on one plain serve.Manager, as they should come back over HTTP.
// A lifecycle operation has one report; a sweep one per cell, in grid
// order.
func referenceReports(w workloadSpec, gen *generator, n int) (map[int][][]byte, error) {
	m := serve.NewManager(1)
	defer m.Close()
	refs := make(map[int][][]byte, n)
	for i := 0; i < n; i++ {
		ctx := obs.WithTrace(context.Background(), gen.traceID(i))
		if w.sweep {
			rep, err := m.SweepCtx(ctx, gen.sweep(i))
			if err != nil {
				return nil, fmt.Errorf("reference sweep %d: %w", i, err)
			}
			for k, cell := range rep.Cells {
				if cell.Report == nil {
					return nil, fmt.Errorf("reference sweep %d cell %d: %s", i, k, cell.Error)
				}
				raw, err := json.Marshal(cell.Report)
				if err != nil {
					return nil, err
				}
				refs[i] = append(refs[i], raw)
			}
			continue
		}
		op := gen.lifecycle(i)
		s, err := m.CreateCtx(ctx, "", op.Config)
		if err != nil {
			return nil, fmt.Errorf("reference session %d: %w", i, err)
		}
		if _, _, err := s.SubmitBag(op.Bag); err != nil {
			return nil, fmt.Errorf("reference session %d: %w", i, err)
		}
		if err := m.Run(s); err != nil {
			return nil, fmt.Errorf("reference session %d: %w", i, err)
		}
		s.Wait()
		rep, err := s.Report()
		if err != nil {
			return nil, fmt.Errorf("reference session %d: %w", i, err)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		refs[i] = [][]byte{raw}
	}
	m.Wait()
	return refs, nil
}

// batchConfig mirrors the service's translation of a session config with
// an inline model into a batch.Config.
func batchConfig(c serve.SessionConfig) batch.Config {
	gang := c.GangSize
	if gang == 0 {
		gang = 1
	}
	policy := c.Policy
	if policy == "" {
		policy = serve.PolicyReuse
	}
	ttl := 1.0
	if c.HotSpareTTL != nil {
		ttl = *c.HotSpareTTL
	}
	p := c.Model
	return batch.Config{
		VMType:          trace.VMType(c.VMType),
		Zone:            trace.Zone(c.Zone),
		Gangs:           c.VMs / gang,
		GangSize:        gang,
		Preemptible:     policy != serve.PolicyOnDemand,
		HotSpareTTL:     ttl,
		Model:           core.New(dist.NewBathtub(p.A, p.Tau1, p.Tau2, p.B, p.L)),
		UseReusePolicy:  policy == serve.PolicyReuse,
		CheckpointDelta: c.CheckpointDelta,
		CheckpointStep:  c.CheckpointStep,
		Seed:            c.Seed,
	}
}

// sweepCellConfigs expands a sweep into its cells' session configs, in
// grid order, as the service does.
func sweepCellConfigs(req serve.SweepRequest) ([]serve.SessionConfig, error) {
	app, err := workload.ByName(req.Bag.App)
	if err != nil {
		return nil, err
	}
	var cfgs []serve.SessionConfig
	for _, vt := range req.VMTypes {
		for _, zone := range req.Zones {
			for _, pol := range req.Policies {
				cfgs = append(cfgs, serve.SessionConfig{
					VMType:          vt,
					Zone:            zone,
					VMs:             req.VMs,
					GangSize:        batch.GangSizeFor(app, trace.VMType(vt)),
					Policy:          pol,
					CheckpointDelta: req.CheckpointDelta,
					CheckpointStep:  req.CheckpointStep,
					Seed:            req.Seed,
					Model:           req.Model,
				})
			}
		}
	}
	return cfgs, nil
}

// replay is one session replayed through the batch library alone.
type replay struct {
	simMS float64
	steps int64
}

// replaySession runs cfg with bag through batch.New -> SubmitBag -> Run
// twice and times the second run, so a DP build the first run paid for
// (the planner cache is per process) does not count as simulation.
func replaySession(cfg serve.SessionConfig, bag serve.BagRequest) (replay, error) {
	app, err := workload.ByName(bag.App)
	if err != nil {
		return replay{}, err
	}
	var out replay
	for pass := 0; pass < 2; pass++ {
		svc, err := batch.New(batchConfig(cfg))
		if err != nil {
			return replay{}, err
		}
		if err := svc.SubmitBagAt(workload.NewBag(app, bag.Jobs, bag.Jitter, bag.Seed), bag.At); err != nil {
			return replay{}, err
		}
		start := time.Now()
		rep, err := svc.Run(context.Background())
		if err != nil {
			return replay{}, err
		}
		if rep.JobsCompleted != bag.Jobs {
			return replay{}, fmt.Errorf("replay completed %d of %d jobs", rep.JobsCompleted, bag.Jobs)
		}
		out = replay{simMS: float64(time.Since(start)) / float64(time.Millisecond), steps: svc.Engine.Steps()}
	}
	return out, nil
}
