package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/workload"
)

// workloadSpec names one traffic mix and the batchsvc topology it runs
// against. README.md gives the reason for each.
type workloadSpec struct {
	name       string
	shards     int
	distribute bool
	// sweep selects POST /api/sweep operations instead of session
	// lifecycles.
	sweep bool
}

// workloads lists every workload the driver runs. sweep-cold is held back
// from BENCHMARK.json until the schedule cache's warm-start leak is fixed
// (README.md).
var workloads = []workloadSpec{
	{name: "lifecycle-local", shards: 1},
	{name: "lifecycle-remote", shards: 2, distribute: true},
	{name: "sweep-cold", shards: 2, sweep: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// lifecycleModels is the lifecycle working set: small enough that every
	// model's planner stays in the schedule cache after warm-up.
	lifecycleModels = 4
	// sweepModelFactor sizes the sweep working set against the cache
	// capacity; visiting it in a cyclic order defeats an LRU, so every sweep
	// misses the cache and pays a DP build (warm-started when a cached
	// planner's model is near enough).
	sweepModelFactor = 4
	// checkpointDelta is the per-checkpoint cost in hours; the DP step is
	// left at the service default (1 minute).
	checkpointDelta = 0.01
	sweepVMs        = 16
	sweepJobs       = 30
	// sweepApp is the paper app with the longest jobs, so every cached
	// planner holds a table of the same (largest) size.
	sweepApp = "nanoconfinement"
)

var (
	lifecycleVMTypes = []string{"n1-highcpu-16", "n1-highcpu-8", "n1-highcpu-32"}
	lifecycleZones   = []string{"us-east1-b", "us-central1-c", "us-west1-a"}
	sweepVMTypes     = []string{"n1-highcpu-8", "n1-highcpu-16", "n1-highcpu-32"}
	sweepZones       = []string{"us-east1-b", "us-central1-c", "us-west1-a"}
	sweepPolicies    = []string{serve.PolicyReuse, serve.PolicyMemoryless}
)

// lifecycleOp is one session: its config and its single bag.
type lifecycleOp struct {
	Config serve.SessionConfig
	Bag    serve.BagRequest
}

// generator derives every input of a run from its seed. Operation i is a
// pure function of (seed, i), so the sequence does not depend on which
// client happens to send it.
type generator struct {
	seed   uint64
	models []serve.ModelParams
}

func newGenerator(w workloadSpec, seed uint64) *generator {
	rng := rand.New(rand.NewPCG(seed, 0x6d6f64656c73)) // "models"
	n := lifecycleModels
	if w.sweep {
		n = sweepModelFactor * policy.DefaultSharedCacheCapacity
	}
	g := &generator{seed: seed, models: make([]serve.ModelParams, n)}
	for i := range g.models {
		g.models[i] = serve.ModelParams{
			A:    0.3 + 0.3*rng.Float64(),
			Tau1: 0.6 + 0.8*rng.Float64(),
			Tau2: 0.5 + 0.6*rng.Float64(),
			B:    24,
			L:    24,
		}
	}
	return g
}

func (g *generator) opRNG(i int) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed^0x9e3779b97f4a7c15, uint64(i)))
}

// traceID is operation i's X-Trace-Id. Reports carry the creating
// request's trace, so fixing it makes reports comparable byte for byte.
func (g *generator) traceID(i int) string {
	return fmt.Sprintf("%016x", g.opRNG(i).Uint64()|1)
}

func (g *generator) lifecycle(i int) lifecycleOp {
	rng := g.opRNG(i)
	_ = rng.Uint64() // the trace id's draw
	apps := workload.Apps()
	model := g.models[rng.IntN(len(g.models))]
	return lifecycleOp{
		Config: serve.SessionConfig{
			VMType:          lifecycleVMTypes[rng.IntN(len(lifecycleVMTypes))],
			Zone:            lifecycleZones[rng.IntN(len(lifecycleZones))],
			VMs:             4 + rng.IntN(5),
			CheckpointDelta: checkpointDelta,
			Seed:            rng.Uint64() >> 1,
			Model:           &model,
		},
		Bag: serve.BagRequest{
			App:  apps[rng.IntN(len(apps))].Name,
			Jobs: 10 + rng.IntN(11),
			Seed: rng.Uint64() >> 1,
		},
	}
}

func (g *generator) sweep(i int) serve.SweepRequest {
	rng := g.opRNG(i)
	_ = rng.Uint64() // the trace id's draw
	model := g.models[i%len(g.models)]
	return serve.SweepRequest{
		VMTypes:         sweepVMTypes,
		Zones:           sweepZones,
		Policies:        sweepPolicies,
		VMs:             sweepVMs,
		CheckpointDelta: checkpointDelta,
		Model:           &model,
		Seed:            rng.Uint64() >> 1,
		Bag: serve.BagRequest{
			App:  sweepApp,
			Jobs: sweepJobs,
			Seed: rng.Uint64() >> 1,
		},
	}
}

// sweepCells is the number of sessions one sweep creates.
func sweepCells() int { return len(sweepVMTypes) * len(sweepZones) * len(sweepPolicies) }
