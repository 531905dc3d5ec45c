package serve

import (
	"fmt"
	"sync"

	"repro/internal/batch"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/trace"
)

// Policy names select the deployment variants compared in the paper's
// Figure 9: the model-driven reuse policy on preemptible VMs, the
// memoryless baseline (always reuse, as existing transient systems do), and
// a conventional on-demand deployment.
const (
	PolicyReuse      = "reuse"
	PolicyMemoryless = "memoryless"
	PolicyOnDemand   = "on-demand"
)

// ModelParams is the wire form of a fitted bathtub model (Equation 1
// parameters plus the deadline): a session's inline model, a model
// registration's version 1, and the parameters a pinned model_ref carries
// to the shard that runs the session. It is the registry's own type, so
// the two never drift apart.
type ModelParams = registry.Params

// FitSpec asks the service to fit per-time-of-day models for the session's
// VM type and zone from generated study data, exactly as the paper's
// service parameterizes its models (Section 5). Fitted registries are
// cached per (vm type, zone, samples, seed).
type FitSpec struct {
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
}

// SessionConfig is the serializable configuration snapshot a session is
// created from. It is the wire form of batch.Config: everything a session
// needs, with models specified either inline (Model) or by a fitting recipe
// (Fit).
type SessionConfig struct {
	VMType string `json:"vm_type"`
	Zone   string `json:"zone"`
	// VMs is the total cluster size; gangs = VMs / GangSize.
	VMs int `json:"vms"`
	// GangSize is the number of VMs per gang (default 1).
	GangSize int `json:"gang_size,omitempty"`
	// Policy is one of "reuse" (default), "memoryless", or "on-demand".
	Policy string `json:"policy,omitempty"`
	// HotSpareTTL is the idle-gang retention in hours (default 1).
	HotSpareTTL *float64 `json:"hot_spare_ttl,omitempty"`
	// CheckpointDelta > 0 enables DP checkpointing with this per-checkpoint
	// cost in hours; CheckpointStep is the DP resolution (default 1 min).
	CheckpointDelta float64 `json:"checkpoint_delta,omitempty"`
	CheckpointStep  float64 `json:"checkpoint_step,omitempty"`
	// WarningCheckpoint enables emergency checkpoints on preemption notice.
	WarningCheckpoint bool `json:"warning_checkpoint,omitempty"`
	// ProgressEvery is the snapshot/cancellation-check cadence in engine
	// steps (default 4096). Smaller values tighten SSE latency and cancel
	// responsiveness at some simulation-throughput cost.
	ProgressEvery int `json:"progress_every,omitempty"`
	// Seed drives all of the session's randomness.
	Seed uint64 `json:"seed"`
	// Model supplies bathtub parameters inline; Fit asks the service to fit
	// per-time-of-day models for this VM type and zone; ModelRef names an
	// entry of the online model registry ("name", "name@latest", or
	// "name@vN"). Exactly one model source may be set; at least one is
	// required for the reuse policy or checkpointing.
	Model *ModelParams `json:"model,omitempty"`
	Fit   *FitSpec     `json:"fit,omitempty"`
	// ModelRef is resolved once, on the control plane's registry, when the
	// session is created, and pinned to the concrete version ("name@vN")
	// it resolved to. The status shows the pinned form; the shard gets the
	// pinned version's parameters with it and its durable create record
	// keeps them, so a session's report stays byte-identical and
	// replayable no matter how many refits publish newer versions.
	ModelRef string `json:"model_ref,omitempty"`
}

// withDefaults returns a copy with defaulted fields filled in.
func (c SessionConfig) withDefaults() SessionConfig {
	if c.GangSize == 0 {
		c.GangSize = 1
	}
	if c.Policy == "" {
		c.Policy = PolicyReuse
	}
	if c.HotSpareTTL == nil {
		ttl := 1.0
		c.HotSpareTTL = &ttl
	}
	if c.Fit != nil && c.Fit.Samples == 0 {
		f := *c.Fit
		f.Samples = 2000
		c.Fit = &f
	}
	return c
}

// validateScenario checks a (vm type, zone) pair against the catalog; it
// is shared by session configs and model registrations.
func validateScenario(vmType, zone string) error {
	if _, err := cloud.Lookup(trace.VMType(vmType)); err != nil {
		return fmt.Errorf("vm_type: %w", err)
	}
	for _, z := range trace.AllZones() {
		if trace.Zone(zone) == z {
			return nil
		}
	}
	return fmt.Errorf("zone: unknown zone %q", zone)
}

// Validate checks the config without building anything expensive.
func (c SessionConfig) Validate() error {
	if err := validateScenario(c.VMType, c.Zone); err != nil {
		return err
	}
	if c.VMs <= 0 || c.GangSize <= 0 || c.VMs%c.GangSize != 0 {
		return fmt.Errorf("vms must be a positive multiple of gang_size (vms=%d gang_size=%d)", c.VMs, c.GangSize)
	}
	switch c.Policy {
	case PolicyReuse, PolicyMemoryless, PolicyOnDemand:
	default:
		return fmt.Errorf("policy: unknown policy %q (want %q, %q, or %q)",
			c.Policy, PolicyReuse, PolicyMemoryless, PolicyOnDemand)
	}
	if *c.HotSpareTTL < 0 {
		return fmt.Errorf("hot_spare_ttl must be non-negative")
	}
	if c.CheckpointDelta < 0 {
		return fmt.Errorf("checkpoint_delta must be non-negative")
	}
	if c.CheckpointStep < 0 {
		return fmt.Errorf("checkpoint_step must be non-negative")
	}
	if c.ProgressEvery < 0 {
		return fmt.Errorf("progress_every must be non-negative")
	}
	if c.CheckpointDelta > 0 {
		// The DP planner rejects steps beyond the model deadline; surface
		// that as a validation error rather than a panic.
		deadline := trace.Deadline
		if c.Model != nil {
			deadline = c.Model.L
		}
		if c.CheckpointStep > deadline {
			return fmt.Errorf("checkpoint_step %vh exceeds the model deadline %vh", c.CheckpointStep, deadline)
		}
	}
	if c.ModelRef != "" {
		if _, _, err := registry.ParseRef(c.ModelRef); err != nil {
			return fmt.Errorf("model_ref: %w", err)
		}
		if c.Model != nil || c.Fit != nil {
			return fmt.Errorf("model_ref is exclusive with \"model\" and \"fit\": a session has one model source")
		}
	}
	needModel := c.Policy == PolicyReuse || c.CheckpointDelta > 0
	if needModel && c.Model == nil && c.Fit == nil && c.ModelRef == "" {
		return fmt.Errorf("policy %q needs a model: set \"model\", \"fit\", or \"model_ref\"", c.Policy)
	}
	if c.Model != nil {
		if _, err := c.Model.Model(); err != nil {
			return fmt.Errorf("model: %w", err)
		}
	}
	if c.Fit != nil && c.Fit.Samples < 50 {
		return fmt.Errorf("fit.samples must be at least 50 (got %d)", c.Fit.Samples)
	}
	return nil
}

// build constructs the session's models (through the fit cache for a
// recipe) and assembles the batch.Config. A model_ref session's model is
// built from pinned, the parameters of the version its reference was
// resolved to on the control plane; build itself resolves nothing. pinned
// arrives over the shard protocol or from the WAL, so it is checked like
// any other input.
func (c SessionConfig) build(models *modelCache, pinned *ModelParams) (batch.Config, error) {
	cfg := batch.Config{
		VMType:            trace.VMType(c.VMType),
		Zone:              trace.Zone(c.Zone),
		Gangs:             c.VMs / c.GangSize,
		GangSize:          c.GangSize,
		Preemptible:       c.Policy != PolicyOnDemand,
		HotSpareTTL:       *c.HotSpareTTL,
		UseReusePolicy:    c.Policy == PolicyReuse,
		CheckpointDelta:   c.CheckpointDelta,
		CheckpointStep:    c.CheckpointStep,
		WarningCheckpoint: c.WarningCheckpoint,
		Seed:              c.Seed,
	}
	if c.Model != nil {
		m, err := c.Model.Model()
		if err != nil {
			return batch.Config{}, err
		}
		cfg.Model = m
	}
	switch {
	case c.ModelRef != "" && pinned == nil:
		return batch.Config{}, fmt.Errorf("model_ref %s: no pinned model parameters", c.ModelRef)
	case c.ModelRef == "" && pinned != nil:
		return batch.Config{}, fmt.Errorf("pinned model parameters without a model_ref")
	case pinned != nil:
		m, err := pinned.Model()
		if err != nil {
			return batch.Config{}, fmt.Errorf("model_ref %s: %w", c.ModelRef, err)
		}
		if c.CheckpointDelta > 0 && c.CheckpointStep > m.Deadline() {
			return batch.Config{}, fmt.Errorf("checkpoint_step %vh exceeds model %s's deadline %vh",
				c.CheckpointStep, c.ModelRef, m.Deadline())
		}
		cfg.Model = m
	}
	if c.Fit != nil {
		reg, err := models.get(cfg.VMType, cfg.Zone, c.Fit.Samples, c.Fit.Seed)
		if err != nil {
			return batch.Config{}, err
		}
		cfg.Models = reg
		if cfg.Model == nil && cfg.CheckpointDelta > 0 {
			// The DP planner needs one concrete model; quote against the
			// day environment, as Estimate does.
			cfg.Model = reg.MustGet(batch.ModelKey(cfg.VMType, cfg.Zone, trace.Day))
		}
	}
	return cfg, nil
}

// modelCache caches fitted model registries per (vm type, zone, samples,
// seed). Fitting is deterministic in those inputs, so the first session
// with a given recipe pays for it and later ones share the result.
type modelCache struct {
	mu   sync.Mutex
	regs map[modelKey]*core.Registry
}

type modelKey struct {
	vt      trace.VMType
	zone    trace.Zone
	samples int
	seed    uint64
}

func newModelCache() *modelCache {
	return &modelCache{regs: make(map[modelKey]*core.Registry)}
}

func (mc *modelCache) get(vt trace.VMType, zone trace.Zone, samples int, seed uint64) (*core.Registry, error) {
	key := modelKey{vt: vt, zone: zone, samples: samples, seed: seed}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if reg, ok := mc.regs[key]; ok {
		return reg, nil
	}
	reg, err := batch.FitStudyModels(vt, zone, samples, seed)
	if err != nil {
		return nil, err
	}
	mc.regs[key] = reg
	return reg, nil
}
