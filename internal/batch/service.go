// Package batch implements the paper's batch computing service (Section 5):
// a centralized controller that maintains a cluster of preemptible VMs on
// the (simulated) cloud, schedules bag-of-jobs workloads through the
// Slurm-like cluster manager, applies the model-driven VM reuse policy,
// keeps stable VMs as hot spares, optionally checkpoints jobs with the DP
// schedule, and accounts costs. The HTTP front end lives in internal/serve,
// which runs many Services as concurrent, isolated sessions; this package
// is the per-session simulation library underneath it.
//
// Jobs occupy gangs: an application needing more cores than one VM provides
// runs on ceil(cores/vmCPUs) VMs launched and scheduled together. A gang is
// the cluster manager's node unit; preempting any member fails the gang's
// running job, after which the dead member is replaced and the gang
// rejoins. The reuse policy evaluates the gang's oldest member, which
// carries the deadline risk.
package batch

import (
	"context"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config configures a Service.
type Config struct {
	VMType trace.VMType
	Zone   trace.Zone
	// Gangs is the number of gangs (scheduling slots) the cluster
	// maintains. Total VMs = Gangs * GangSize.
	Gangs int
	// GangSize is the number of VMs per gang (ceil(app cores / VM CPUs)).
	GangSize int
	// Preemptible selects preemptible or on-demand VMs (the Figure 9a
	// baseline uses on-demand).
	Preemptible bool
	// HotSpareTTL is how long an idle gang is retained before being
	// terminated (the paper keeps stable VMs for one hour).
	HotSpareTTL float64
	// Model is the fitted preemption model used by the policies; nil
	// disables model-driven decisions (memoryless behavior).
	Model *core.Model
	// Models optionally carries environment-specific models keyed by
	// ModelKey (Section 5's per-VM-type/region/time-of-day
	// parameterization); when set, policy decisions use the model matching
	// the conditions at decision time, falling back to Model.
	Models *core.Registry
	// UseReusePolicy enables the Section 4.2 VM reuse policy (requires
	// Model).
	UseReusePolicy bool
	// CheckpointDelta > 0 enables DP checkpointing with the given
	// per-checkpoint cost in hours (requires Model).
	CheckpointDelta float64
	// CheckpointStep is the DP resolution in hours (default 1 minute).
	CheckpointStep float64
	// WarningCheckpoint enables emergency checkpoints on the provider's
	// ~30-second preemption notice (Section 2.1's "small advance
	// warning"): the work completed on the current attempt up to the
	// warning instant survives the preemption.
	WarningCheckpoint bool
	// Seed drives all randomness.
	Seed uint64
}

// GangSizeFor returns ceil(app.Cores / cpus) for the config's VM type.
func GangSizeFor(app workload.App, vt trace.VMType) int {
	cpus := vt.CPUs()
	return (app.Cores + cpus - 1) / cpus
}

// jobState tracks one job across attempts.
type jobState struct {
	spec      workload.JobSpec
	remaining float64 // work hours still to do (after checkpoint recovery)
	attempts  int
	failures  int
	done      bool
	doneAt    float64
	// schedule of the current attempt, for checkpoint recovery mapping.
	schedule policy.Schedule
	hasCkpt  bool
	// warningWork is the work snapshotted by an emergency checkpoint on
	// the current attempt (WarningCheckpoint mode).
	warningWork float64
	// arrival is the virtual time the job becomes available.
	arrival float64
	// class indexes the job's application class in Service.classes.
	class int
	// cjob is the cluster-level job, reused across attempts: the struct and
	// its callback closures are built once per job, not once per attempt
	// (the cluster manager drops its reference before every completion or
	// failure callback, so resubmitting the same struct is safe).
	cjob cluster.Job
}

// Service is the batch computing controller. A Service owns its engine,
// provider, and cluster outright and shares no mutable state with other
// Services — many of them can run concurrently in one process (see
// internal/serve) as long as each instance is driven from one goroutine at
// a time. Expensive derived artifacts (reuse schedulers, DP checkpoint
// planners) come from the process-wide cache in internal/policy.
type Service struct {
	Engine   *sim.Engine
	Provider *cloud.Provider
	Manager  *cluster.Manager

	// OnSnapshot, when set before Run, receives an observation once at run
	// start, every ProgressEvery engine steps, and a final time after the
	// run drains. It is invoked from the goroutine driving Run; the
	// callback is the only sanctioned way to observe a Service mid-run from
	// outside.
	OnSnapshot func(Snapshot)
	// SnapshotDetail, optional, is consulted before every snapshot, the
	// initial and final ones included: when it returns false the snapshot
	// carries only Progress (Jobs and VMs nil), skipping the O(jobs) status
	// materialization nobody asked for. Unset, every snapshot carries full
	// detail.
	SnapshotDetail func() bool
	// ProgressEvery is the snapshot (and cancellation-check) cadence in
	// engine steps (default 4096). A cancelled context is noticed within one
	// interval.
	ProgressEvery int

	cfg     Config
	planner *policy.CheckpointPlanner

	gangs    map[cluster.NodeID]*gang
	jobs     map[string]*jobState
	jobOrder []string
	// stateBlocks are the pooled backing arrays behind jobs (one per
	// submitted bag), retained so Recycle can hand them back (arena.go).
	stateBlocks [][]jobState
	remaining   int // jobs not yet done
	// classes aggregates per-application-class progress incrementally (in
	// first-submission order), so snapshots never need an O(jobs) rescan.
	classes    []ClassProgress
	classIndex map[string]int
	// classesGen ticks on every mutation of classes; Progress uses it to
	// reuse the last published (immutable) class snapshot while nothing
	// changed instead of copying per interval.
	classesGen     uint64
	classesSnap    []ClassProgress
	classesSnapGen uint64
	// running tracks which job occupies each gang, for warning handling.
	running map[cluster.NodeID]*jobState

	startedAt   float64
	finishedAt  float64
	gangCounter int
	// jobCompleteFn/jobFailFn are the cluster callbacks shared by every job
	// of the service (the per-job state rides in cluster.Job.Ctx), so
	// enqueueing a job allocates no closures. spareCb and enqueueCb are the
	// shared timer callbacks for hot-spare expiry and deferred-bag arrival.
	jobCompleteFn func(*cluster.Job, cluster.NodeID)
	jobFailFn     func(*cluster.Job, cluster.NodeID, float64)
	spareCb       func(any)
	enqueueCb     func(any)
	// stopping marks a cancelled run's teardown: job failures induced by
	// retiring busy gangs are abandoned instead of re-enqueued, and no
	// replacement capacity is launched.
	stopping bool
}

// New creates a service over a fresh engine and provider. Call SubmitBag
// then Run.
func New(cfg Config) (*Service, error) {
	if cfg.Gangs <= 0 || cfg.GangSize <= 0 {
		return nil, fmt.Errorf("batch: invalid cluster shape gangs=%d size=%d", cfg.Gangs, cfg.GangSize)
	}
	if _, err := cloud.Lookup(cfg.VMType); err != nil {
		return nil, err
	}
	if cfg.UseReusePolicy && cfg.Model == nil && cfg.Models == nil {
		return nil, fmt.Errorf("batch: reuse policy requires a model or registry")
	}
	if cfg.UseReusePolicy && cfg.Model == nil && cfg.Models != nil {
		// Without a fallback model, the registry must cover every
		// time-of-day the service can encounter.
		for _, tod := range []trace.TimeOfDay{trace.Day, trace.Night} {
			if _, ok := cfg.Models.Get(ModelKey(cfg.VMType, cfg.Zone, tod)); !ok {
				return nil, fmt.Errorf("batch: model registry missing %s entry for %s/%s",
					tod, cfg.VMType, cfg.Zone)
			}
		}
	}
	if cfg.CheckpointDelta > 0 && cfg.Model == nil {
		return nil, fmt.Errorf("batch: checkpointing requires a model")
	}
	if cfg.CheckpointStep <= 0 {
		cfg.CheckpointStep = 1.0 / 60
	}
	if cfg.CheckpointDelta > 0 && cfg.CheckpointStep > cfg.Model.Deadline() {
		// The planner refuses a step past the deadline; so does New, rather
		// than let a defaulted step reach it.
		return nil, fmt.Errorf("batch: checkpoint step %vh exceeds the model deadline %vh",
			cfg.CheckpointStep, cfg.Model.Deadline())
	}
	if cfg.HotSpareTTL < 0 {
		return nil, fmt.Errorf("batch: negative hot spare TTL")
	}

	engine := sim.NewEngine()
	provider := cloud.NewProvider(engine, cfg.Seed, trace.Busy)
	mgr := cluster.New(engine)
	s := &Service{
		Engine:     engine,
		Provider:   provider,
		Manager:    mgr,
		cfg:        cfg,
		gangs:      make(map[cluster.NodeID]*gang, 8),
		jobs:       make(map[string]*jobState),
		running:    make(map[cluster.NodeID]*jobState, 8),
		classIndex: make(map[string]int, 4),
	}
	s.jobCompleteFn = func(j *cluster.Job, node cluster.NodeID) {
		delete(s.running, node)
		s.onJobComplete(j.Ctx.(*jobState))
	}
	s.jobFailFn = func(j *cluster.Job, node cluster.NodeID, progress float64) {
		delete(s.running, node)
		s.onJobFail(j.Ctx.(*jobState), progress)
	}
	s.spareCb = func(a any) {
		g := a.(*gang)
		if st, ok := s.Manager.State(g.node); ok && st == cluster.NodeIdle {
			s.retireGang(g)
		}
	}
	s.enqueueCb = func(a any) { s.enqueue(a.(*jobState)) }
	if cfg.UseReusePolicy {
		mgr.PlaceFilter = s.placeFilter
		mgr.OnBlocked = s.onBlocked
	}
	if cfg.CheckpointDelta > 0 {
		// The planner is shared process-wide: every session with the same
		// (model identity, delta, step) reuses one DP table, and concurrent
		// cold solves of that table are deduplicated inside the planner.
		s.planner = policy.SharedPlanner(cfg.Model, cfg.CheckpointDelta, cfg.CheckpointStep)
	}
	mgr.OnIdle = s.onGangIdle
	mgr.OnPlace = s.onPlace
	provider.OnPreemption(s.onPreemption)
	if cfg.WarningCheckpoint {
		provider.WarningLead = cloud.DefaultWarningLead
		provider.OnWarning(s.onWarning)
	}
	return s, nil
}

// onPlace records which job occupies a gang.
func (s *Service) onPlace(j *cluster.Job, node cluster.NodeID) {
	if js, ok := j.Ctx.(*jobState); ok {
		s.running[node] = js
	}
}

// onWarning takes an emergency checkpoint for the job running on the
// warned VM's gang: everything computed on the current attempt up to this
// instant survives the imminent preemption.
func (s *Service) onWarning(vm *cloud.VM) {
	g := s.findGang(vm)
	if g == nil || g.retired {
		return
	}
	js, ok := s.running[g.node]
	if !ok {
		return
	}
	j, startedAt := s.Manager.RunningJob(g.node)
	if j == nil {
		return
	}
	elapsed := s.Engine.Now() - startedAt
	sched := js.schedule
	if !js.hasCkpt {
		sched = policy.Schedule{Intervals: []float64{js.remaining}}
	}
	if w := workAtElapsed(sched, s.cfg.CheckpointDelta, elapsed); w > js.warningWork {
		js.warningWork = w
	}
}

// workAtElapsed maps elapsed wall time of an attempt to the work actually
// computed (excluding checkpoint-write time), counting partial segments —
// the quantity an emergency checkpoint preserves.
func workAtElapsed(sched policy.Schedule, delta, elapsed float64) float64 {
	var wall, work float64
	for i, iv := range sched.Intervals {
		if elapsed < wall+iv {
			return work + (elapsed - wall)
		}
		work += iv
		wall += iv
		if i < len(sched.Intervals)-1 {
			if elapsed < wall+delta {
				return work // mid checkpoint write: no new work
			}
			wall += delta
		}
	}
	return work
}

// SubmitBag registers all jobs of a bag for immediate execution. The
// service learns job runtimes from the bag's mean (Section 5's bag-of-jobs
// abstraction).
func (s *Service) SubmitBag(bag workload.Bag) error {
	return s.SubmitBagAt(bag, 0)
}

// SubmitBagAt registers a bag whose jobs arrive at the given virtual time
// (hours after Run starts). Deferred bags model a service receiving work
// over its lifetime — the situation where retaining stable VMs as hot
// spares between bags pays off. Must be called before Run. The bag is
// applied atomically: on error, no job was registered.
func (s *Service) SubmitBagAt(bag workload.Bag, at float64) error {
	if err := s.ValidateBagAt(bag, at); err != nil {
		return err
	}
	if len(s.jobs) == 0 {
		// First bag: size the registries for it up front.
		s.jobs = make(map[string]*jobState, len(bag.Jobs))
		s.jobOrder = make([]string, 0, len(bag.Jobs))
	}
	// One backing array for the whole bag's job states: pointers into it
	// stay valid for the service's lifetime, and submission is one
	// (usually pooled — see arena.go) allocation instead of one per job.
	states := getStates(len(bag.Jobs))
	s.stateBlocks = append(s.stateBlocks, states)
	for i, spec := range bag.Jobs {
		js := &states[i]
		js.spec = spec
		js.remaining = spec.Runtime
		js.arrival = at
		ci, ok := s.classIndex[spec.App]
		if !ok {
			ci = len(s.classes)
			s.classIndex[spec.App] = ci
			s.classes = append(s.classes, ClassProgress{App: spec.App})
		}
		js.class = ci
		s.classes[ci].JobsTotal++
		s.classes[ci].RemainingHours += spec.Runtime
		s.classesGen++
		s.jobs[spec.ID] = js
		s.jobOrder = append(s.jobOrder, spec.ID)
		s.remaining++
	}
	return nil
}

// ValidateBagAt runs every check SubmitBagAt applies, without mutating any
// state. Callers that must sequence a side effect (e.g. a durable log
// write) between validation and application use it to guarantee the
// application step cannot fail afterwards.
func (s *Service) ValidateBagAt(bag workload.Bag, at float64) error {
	if len(bag.Jobs) == 0 {
		return fmt.Errorf("batch: empty bag")
	}
	if at < 0 {
		return fmt.Errorf("batch: negative arrival time %v", at)
	}
	// Intra-bag duplicate detection: small bags use a quadratic scan (no
	// allocation, and n is tiny), large ones a set.
	var seen map[string]bool
	if len(bag.Jobs) > 64 {
		seen = make(map[string]bool, len(bag.Jobs))
	}
	for i, spec := range bag.Jobs {
		dup := false
		if _, exists := s.jobs[spec.ID]; exists {
			dup = true
		} else if seen != nil {
			dup = seen[spec.ID]
			seen[spec.ID] = true
		} else {
			for _, prev := range bag.Jobs[:i] {
				if prev.ID == spec.ID {
					dup = true
					break
				}
			}
		}
		if dup {
			return fmt.Errorf("batch: duplicate job %q", spec.ID)
		}
		if spec.Runtime <= 0 {
			return fmt.Errorf("batch: job %q has non-positive runtime", spec.ID)
		}
	}
	return nil
}

// Run launches the cluster, executes all submitted jobs to completion, then
// drains the cluster and returns the report. It must be called once.
//
// The context is threaded into the engine's event loop (checked every
// ProgressEvery events): when it is cancelled, Run terminates every live
// gang — so accrued VM cost is final and deterministic for the instant of
// cancellation — discards the partial report, and returns the context's
// error wrapped with the virtual time reached. A cancelled service must not
// be run again.
func (s *Service) Run(ctx context.Context) (Report, error) {
	if s.remaining == 0 {
		return Report{}, fmt.Errorf("batch: no jobs submitted")
	}
	if err := ctx.Err(); err != nil {
		return Report{}, fmt.Errorf("batch: run not started: %w", err)
	}
	s.startedAt = s.Engine.Now()
	for i := 0; i < s.cfg.Gangs; i++ {
		if _, err := s.launchGang(); err != nil {
			return Report{}, err
		}
	}
	for _, id := range s.jobOrder {
		js := s.jobs[id]
		if js.arrival <= s.Engine.Now() {
			s.enqueue(js)
		} else {
			s.Engine.AtCall(js.arrival, s.enqueueCb, js)
		}
	}
	// Drive the simulation until every job completes, surfacing snapshots
	// (and noticing cancellation) every ProgressEvery events.
	s.publish()
	err := s.Engine.DriveContext(ctx,
		s.ProgressEvery,
		func() bool { return s.remaining == 0 },
		s.publish,
	)
	switch {
	case err == sim.ErrStalled:
		return Report{}, fmt.Errorf("batch: simulation stalled with %d jobs remaining", s.remaining)
	case err != nil:
		// Cancellation: retire every gang at the cancellation instant so the
		// accrued cost is settled, then surface a final snapshot of the
		// abandoned state. The partial report is deliberately discarded.
		// stopping suppresses the usual failure-recovery reaction to busy
		// gangs being torn down (re-enqueue + replacement launch), which
		// would otherwise leave fresh gangs running after the drain.
		s.stopping = true
		s.drain()
		s.publish()
		return Report{}, fmt.Errorf("batch: run cancelled at t=%.3fh with %d of %d jobs done: %w",
			s.Engine.Now(), len(s.jobs)-s.remaining, len(s.jobs), err)
	}
	s.finishedAt = s.Engine.Now()
	s.drain()
	s.publish()
	return s.report(), nil
}

// publish delivers a snapshot to the OnSnapshot observer, if any. Every
// publish, at the run's start and end as well as the periodic ones, defers
// to SnapshotDetail on whether to pay for the per-job and VM listings.
func (s *Service) publish() {
	if s.OnSnapshot == nil {
		return
	}
	if s.SnapshotDetail != nil && !s.SnapshotDetail() {
		s.OnSnapshot(Snapshot{Progress: s.Progress()})
		return
	}
	s.OnSnapshot(s.Snapshot())
}

// ensureCapacity scales the cluster back toward its configured size when
// work is outstanding — after an idle period the hot-spare TTL may have
// retired every gang.
func (s *Service) ensureCapacity() {
	if s.stopping {
		return
	}
	target := s.cfg.Gangs
	if s.remaining < target {
		target = s.remaining
	}
	for len(s.gangs) < target {
		if _, err := s.launchGang(); err != nil {
			panic(fmt.Sprintf("batch: restoring cluster capacity: %v", err))
		}
	}
}

// enqueue submits (or resubmits) a job's remaining work to the cluster.
func (s *Service) enqueue(js *jobState) {
	wall := js.remaining
	js.hasCkpt = false
	// The checkpoint schedule depends on the age of the gang the job will
	// land on, which is unknown until placement. The planner is consulted
	// at placement time via the wall-time adjustment below being
	// recomputed; as a controller simplification we plan at age 0 when
	// enqueueing and re-plan on each attempt (the paper precomputes
	// schedules per job length the same way).
	if s.planner != nil {
		// Re-plan in place: the previous attempt's interval buffer is dead
		// the moment we re-plan, so hand it back to PlanInto for reuse.
		js.schedule = s.planner.PlanInto(js.schedule.Intervals, js.remaining, 0)
		js.hasCkpt = true
		wall = js.remaining + s.cfg.CheckpointDelta*float64(js.schedule.NumCheckpoints())
	}
	js.attempts++
	s.classes[js.class].Attempts++
	s.classesGen++
	js.warningWork = 0
	if js.cjob.OnComplete == nil {
		js.cjob = cluster.Job{
			ID:         js.spec.ID,
			Ctx:        js,
			OnComplete: s.jobCompleteFn,
			OnFail:     s.jobFailFn,
		}
	}
	js.cjob.Remaining = wall
	s.ensureCapacity()
	s.Manager.Submit(&js.cjob)
}

func (s *Service) onJobComplete(js *jobState) {
	c := &s.classes[js.class]
	c.JobsDone++
	c.RemainingHours -= js.remaining
	s.classesGen++
	js.remaining = 0
	js.done = true
	js.doneAt = s.Engine.Now()
	s.remaining--
}

// onJobFail handles a preemption-induced failure: recover checkpointed
// progress and resubmit.
func (s *Service) onJobFail(js *jobState, elapsedWall float64) {
	if s.stopping {
		// The failure is an artifact of the cancelled run's teardown, not
		// of the simulated cloud: abandon the job without accounting or
		// retry.
		return
	}
	js.failures++
	s.classes[js.class].Failures++
	s.classesGen++
	before := js.remaining
	recovered := 0.0
	if js.hasCkpt {
		recovered = recoveredWork(js.schedule, s.cfg.CheckpointDelta, elapsedWall)
	}
	// An emergency warning checkpoint may have preserved more than the
	// last periodic one.
	if js.warningWork > recovered {
		recovered = js.warningWork
	}
	if recovered > 0 {
		js.remaining -= recovered
		if js.remaining < 0 {
			js.remaining = 0
		}
	}
	s.classes[js.class].RemainingHours -= before - js.remaining
	// Without any checkpoint all progress is lost; remaining unchanged.
	s.enqueue(js)
}

// recoveredWork maps elapsed wall time of a failed attempt to the work
// preserved by its last completed checkpoint.
func recoveredWork(sched policy.Schedule, delta, elapsed float64) float64 {
	var wall, work float64
	for i, iv := range sched.Intervals {
		if i == len(sched.Intervals)-1 {
			// The final segment completes the job and is not followed by
			// a checkpoint; a failure during it recovers nothing extra.
			break
		}
		segEnd := wall + iv + delta // work plus the checkpoint write
		if elapsed+1e-12 < segEnd {
			break
		}
		wall = segEnd
		work += iv
	}
	return work
}

// placeFilter implements the VM reuse policy at placement time, using the
// model matching the current conditions.
func (s *Service) placeFilter(j *cluster.Job, node cluster.NodeID) bool {
	g, ok := s.gangs[node]
	if !ok {
		return true
	}
	now := s.Engine.Now()
	return s.schedulerFor(now).ShouldReuse(g.OldestAge(now), j.Remaining)
}

// onBlocked fires when all idle gangs were refused for the head job: retire
// the refused idle gangs (they are deadline-risky) and launch a fresh one.
func (s *Service) onBlocked(j *cluster.Job) {
	now := s.Engine.Now()
	sched := s.schedulerFor(now)
	for _, id := range s.Manager.NodeIDs() {
		if st, ok := s.Manager.State(id); !ok || st != cluster.NodeIdle {
			continue
		}
		if g, ok := s.gangs[id]; ok && !sched.ShouldReuse(g.OldestAge(now), j.Remaining) {
			s.retireGang(g)
		}
	}
	if _, err := s.launchGang(); err != nil {
		// Launching can only fail on catalog errors, which New validated.
		panic(err)
	}
}

// onGangIdle starts the hot-spare TTL for an idle gang.
func (s *Service) onGangIdle(node cluster.NodeID) {
	g, ok := s.gangs[node]
	if !ok {
		return
	}
	if s.cfg.HotSpareTTL == 0 {
		s.retireGang(g)
		return
	}
	g.spareTimer = s.Engine.AfterCall(s.cfg.HotSpareTTL, s.spareCb, g)
}

// drain terminates every remaining gang after the last job completes, in
// node-ID order so that cost accumulation is deterministic. The sort is a
// plain insertion sort: gang counts are small and sort.Slice's reflection
// machinery allocated on every teardown.
func (s *Service) drain() {
	ids := make([]cluster.NodeID, 0, len(s.gangs))
	for id := range s.gangs {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k] < ids[k-1]; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
	for _, id := range ids {
		if g, ok := s.gangs[id]; ok && !g.retired {
			s.retireGang(g)
		}
	}
}
