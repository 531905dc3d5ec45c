package policy

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// dpSolveSeconds is the process-wide DP solve latency distribution: one
// observation per actual table build (joined flights and cache hits do
// not observe — they paid nothing). The aggregate per-planner counters
// stay in SolveStats; the histogram adds the shape /metrics needs.
var dpSolveSeconds = obs.Default().Histogram(
	"batchsvc_dp_solve_seconds",
	"Checkpoint-DP table build latency in seconds (one observation per solve, incremental extensions included).",
	nil,
)

// CheckpointPlanner computes optimal checkpoint schedules for bathtub
// failure rates by dynamic programming (Section 4.3, Equations 9-13). Time
// is discretized into steps of Step hours; each checkpoint costs Delta
// hours. On a preemption the job resumes from its last checkpoint on a NEW
// VM (age 0), which makes the age-0 value function self-referential; the
// planner solves that fixed point algebraically per candidate interval
// (DESIGN.md note 3).
//
// Every planner runs one exact scan: each cell's candidate loop is capped
// at the grid's saturation point (pruneBound) and skips candidate blocks
// that a coarse guide solve proves cannot win (checkpoint_coarse.go), so
// the table is bit-identical to the exhaustive recurrence. The solve is
// row-parallel (see SetParallelism), incremental (a cached table is grown,
// not re-solved, when a longer job arrives), and deduped: concurrent Plan
// calls needing the same table join one in-flight solve instead of
// serializing behind a lock (see package doc for the structure and
// SolveStats for observability).
type CheckpointPlanner struct {
	Model *core.Model
	Delta float64 // checkpoint write cost, hours
	Step  float64 // DP time resolution, hours (e.g. 1.0/60 for one minute)

	// warm points at a neighbor planner (nearby bathtub parameters, same
	// delta and step) whose solved choice table seeds this planner's
	// coarse-to-fine hints; set by the shared cache before first use and
	// cleared (under mu) when the first build takes it, so a chain of
	// warm-seeded planners never keeps evicted neighbors reachable.
	warm *CheckpointPlanner

	// par is the row-parallel worker count (0 = package default, then
	// GOMAXPROCS), stored atomically because planners are shared across
	// sessions that may configure it concurrently; any value is safe since
	// results are byte-identical at every worker count.
	par atomic.Int32

	mu     sync.Mutex
	cached *table       // largest table solved so far; reused for shorter jobs
	flight *solveFlight // in-flight solve other callers join, nil when idle
	stats  SolveStats
}

// solveFlight is one in-flight DP solve. Callers needing at most n work
// steps wait on done and read tb (set before done closes).
type solveFlight struct {
	n    int
	done chan struct{}
	tb   *table
}

// SolveStats counts a planner's DP solves: how many table builds ran, how
// many callers joined an in-flight build instead of starting their own
// (dedup), whether one is running now, and the build latencies. The shared
// cache exposes these per key via SharedPlannerSolveStats.
type SolveStats struct {
	// Solves counts completed table builds (initial solves and incremental
	// growths alike).
	Solves uint64 `json:"solves"`
	// DedupWaits counts callers that joined an in-flight solve rather than
	// starting their own — the singleflight savings.
	DedupWaits uint64 `json:"dedup_waits"`
	// Inflight is 1 while a solve is running, else 0.
	Inflight int `json:"inflight"`
	// TableWorkSteps is the cached table's current row count (job steps).
	TableWorkSteps int `json:"table_work_steps"`
	// LastSolveMS / MaxSolveMS / TotalSolveMS are build wall-clock times in
	// milliseconds.
	LastSolveMS  float64 `json:"last_solve_ms"`
	MaxSolveMS   float64 `json:"max_solve_ms"`
	TotalSolveMS float64 `json:"total_solve_ms"`
	// CoarseSolves counts guide solves run by the coarse-to-fine pass (one
	// per table build, except on grids too coarse to refine further).
	CoarseSolves uint64 `json:"coarse_solves"`
	// WarmStarts counts table builds whose candidate bounds were seeded by
	// a warm neighbor planner's choice table (cross-model warm starts).
	WarmStarts uint64 `json:"warm_starts"`
}

// defaultPlannerParallelism is the process-wide fallback worker count for
// planners whose own setting is zero (see SetDefaultPlannerParallelism).
var defaultPlannerParallelism atomic.Int32

// SetDefaultPlannerParallelism sets the process-wide default row-parallel
// worker count used by planners that have no per-planner setting. n <= 0
// restores the built-in default (GOMAXPROCS).
func SetDefaultPlannerParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultPlannerParallelism.Store(int32(n))
}

// SetParallelism sets this planner's row-parallel worker count; 0 defers to
// the package default (SetDefaultPlannerParallelism), then GOMAXPROCS. The
// solved tables are byte-identical at every worker count, so concurrent
// sessions sharing a planner may set it freely.
func (p *CheckpointPlanner) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	p.par.Store(int32(n))
}

// Parallelism returns the effective worker count a solve would use now.
func (p *CheckpointPlanner) Parallelism() int {
	if n := int(p.par.Load()); n > 0 {
		return n
	}
	if n := int(defaultPlannerParallelism.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Stats returns a snapshot of the planner's solve counters.
func (p *CheckpointPlanner) Stats() SolveStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	if p.flight != nil {
		st.Inflight = 1
	}
	if p.cached != nil {
		st.TableWorkSteps = p.cached.nWork
	}
	return st
}

// NewCheckpointPlanner returns a planner. Delta must be non-negative and
// Step positive and no larger than the deadline.
func NewCheckpointPlanner(m *core.Model, delta, step float64) *CheckpointPlanner {
	if m == nil {
		panic("policy: nil model")
	}
	if delta < 0 || step <= 0 || step > m.Deadline() {
		panic(fmt.Sprintf("policy: invalid planner parameters delta=%v step=%v", delta, step))
	}
	return &CheckpointPlanner{Model: m, Delta: delta, Step: step}
}

// Schedule is a checkpoint plan: the work intervals (hours of job progress)
// between consecutive checkpoints, assuming no failure occurs. The final
// interval completes the job and is not followed by a checkpoint.
type Schedule struct {
	Intervals []float64
	// ExpectedMakespan is E[M*] for the planned job, including checkpoint
	// overhead and expected recomputation.
	ExpectedMakespan float64
}

// NumCheckpoints returns the number of checkpoints taken on the
// failure-free path.
func (s Schedule) NumCheckpoints() int {
	if len(s.Intervals) == 0 {
		return 0
	}
	return len(s.Intervals) - 1
}

// table holds the solved DP for one planner configuration. The value and
// choice tables are flat row-major slices (row j holds all ages of work
// amount j) rather than [][]T: one contiguous allocation each, index
// arithmetic instead of a second pointer chase, and cache-friendly row
// scans in the O(T^3) solve.
type table struct {
	step   float64
	delta  int       // checkpoint cost in steps (rounded up, min 0)
	nAges  int       // number of age grid points, age index a corresponds to a*step
	nWork  int       // maximum job steps solved
	value  []float64 // value[j*nAges+a] = E[M*(j steps, age a)]
	choice []int32   // choice[j*nAges+a] = optimal first interval in steps
	// survival S[a] = 1 - F(a*step) and first moment M1[a] of the
	// normalized model, precomputed on the age grid.
	surv []float64
	m1   []float64
	// survZero is the start of the saturated suffix of the grid — the
	// smallest index from which surv is exactly zero and m1 bitwise
	// constant through the end — or len(surv) when survival never reaches
	// zero (a bathtub whose raw CDF exceeds 1 before the deadline keeps
	// the clamped survival positive). The candidate scan caps itself at
	// it; see pruneBound.
	survZero int
}

// newTable allocates an unsolved table for n work steps of the model at
// the given checkpoint cost and resolution, with its age grid (surv, m1,
// survZero) filled in.
func newTable(m *core.Model, delta, step float64, n int) *table {
	l := m.Deadline()
	nAges := int(math.Ceil(l/step)) + 1
	deltaSteps := int(math.Ceil(delta/step - 1e-12))
	if delta == 0 {
		deltaSteps = 0
	}
	tb := &table{
		step:   step,
		delta:  deltaSteps,
		nAges:  nAges,
		nWork:  n,
		value:  make([]float64, (n+1)*nAges),
		choice: make([]int32, (n+1)*nAges),
		surv:   make([]float64, nAges+1),
		m1:     make([]float64, nAges+1),
	}
	bt := m.Bathtub()
	norm := bt.Raw(l)
	for a := 0; a <= nAges; a++ {
		t := math.Min(float64(a)*step, l)
		tb.surv[a] = 1 - math.Min(bt.CDF(t)/norm, 1)
		tb.m1[a] = bt.PartialMoment(t) / norm
	}
	tb.survZero = len(tb.surv)
	for tb.survZero > 0 && tb.surv[tb.survZero-1] == 0 && tb.m1[tb.survZero-1] == tb.m1[nAges] {
		tb.survZero--
	}
	return tb
}

// valueAt returns E[M*] for j work steps at age index a.
func (tb *table) valueAt(j, a int) float64 { return tb.value[j*tb.nAges+a] }

// choiceAt returns the optimal first interval (in steps) for state (j, a).
func (tb *table) choiceAt(j, a int) int32 { return tb.choice[j*tb.nAges+a] }

// Plan solves the DP for a job of uninterrupted length jobLen starting on a
// VM of age startAge, and returns the optimal schedule together with its
// expected makespan E[M*(J, s)].
func (p *CheckpointPlanner) Plan(jobLen, startAge float64) Schedule {
	return p.PlanInto(nil, jobLen, startAge)
}

// PlanInto is Plan with a caller-supplied intervals buffer: the schedule is
// appended into buf[:0], so a caller re-planning the same job across
// attempts (the batch service does, on every failure) reuses one backing
// array instead of allocating per attempt. The caller must not hand the
// returned schedule to anyone who outlives the next PlanInto on the same
// buffer.
func (p *CheckpointPlanner) PlanInto(buf []float64, jobLen, startAge float64) Schedule {
	if jobLen <= 0 {
		return Schedule{ExpectedMakespan: 0}
	}
	if startAge < 0 {
		startAge = 0
	}
	tb := p.solve(jobLen)
	a0 := tb.ageIndex(startAge)
	n := p.steps(jobLen)
	sched := Schedule{Intervals: buf[:0:cap(buf)], ExpectedMakespan: tb.valueAt(n, a0)}
	// Walk the choice table along the failure-free path.
	j, a := n, a0
	for j > 0 {
		i := int(tb.choiceAt(j, a))
		if i <= 0 {
			// Defensive: should not happen for a solved table.
			panic(fmt.Sprintf("policy: missing DP choice at j=%d a=%d", j, a))
		}
		sched.Intervals = append(sched.Intervals, float64(i)*tb.step)
		if i >= j {
			break
		}
		a += i + tb.delta
		if a >= tb.nAges {
			a = tb.nAges - 1
		}
		j -= i
	}
	return sched
}

// PrecomputeSchedules solves the DP once for the longest job and extracts
// the schedule for every requested (jobLen, startAge) pair, keyed by the
// pair. Section 5 precomputes schedules for jobs of different lengths this
// way so new jobs never pay the O(T^3) solve.
func (p *CheckpointPlanner) PrecomputeSchedules(jobLens, startAges []float64) map[[2]float64]Schedule {
	out := make(map[[2]float64]Schedule, len(jobLens)*len(startAges))
	maxLen := 0.0
	for _, j := range jobLens {
		if j > maxLen {
			maxLen = j
		}
	}
	if maxLen <= 0 {
		return out
	}
	p.solve(maxLen) // warm the shared table
	for _, j := range jobLens {
		for _, s := range startAges {
			out[[2]float64{j, s}] = p.Plan(j, s)
		}
	}
	return out
}

// ExpectedMakespan returns E[M*(J, s)] without extracting the schedule.
func (p *CheckpointPlanner) ExpectedMakespan(jobLen, startAge float64) float64 {
	if jobLen <= 0 {
		return 0
	}
	tb := p.solve(jobLen)
	return tb.valueAt(p.steps(jobLen), tb.ageIndex(startAge))
}

// steps quantizes a job length onto the grid, rounding to nearest.
func (p *CheckpointPlanner) steps(jobLen float64) int {
	n := int(math.Round(jobLen / p.Step))
	if n < 1 {
		n = 1
	}
	return n
}

// OverheadPercent returns the expected percentage increase in running time
// over the uninterrupted job length, the metric of Figure 8.
func (p *CheckpointPlanner) OverheadPercent(jobLen, startAge float64) float64 {
	if jobLen <= 0 {
		return 0
	}
	// Quantize the job length exactly as the DP does so the overhead is
	// measured against the work actually scheduled.
	quantized := float64(p.steps(jobLen)) * p.Step
	return 100 * (p.ExpectedMakespan(jobLen, startAge) - quantized) / quantized
}

func (tb *table) ageIndex(age float64) int {
	a := int(math.Round(age / tb.step))
	if a < 0 {
		a = 0
	}
	if a >= tb.nAges {
		a = tb.nAges - 1
	}
	return a
}

// solve returns a DP table covering jobs of at least jobLen hours. A table
// solved for n work steps contains the value function of every shorter job
// (Section 5 precomputes schedules for jobs of different lengths the same
// way), so the cached table is reused when large enough and grown
// incrementally — rows 1..n0 of a table are valid prefixes of any larger
// table — when not.
//
// Concurrent callers are deduplicated per planner: the first caller needing
// a larger table starts a build (outside the planner lock, so unrelated
// planners and readers of the current table never stall behind it); callers
// arriving while it runs join the same flight and share its result instead
// of queueing up redundant solves behind a mutex.
func (p *CheckpointPlanner) solve(jobLen float64) *table {
	n := p.steps(jobLen)
	p.mu.Lock()
	for {
		if p.cached != nil && p.cached.nWork >= n {
			tb := p.cached
			p.mu.Unlock()
			return tb
		}
		f := p.flight
		if f == nil {
			break
		}
		p.stats.DedupWaits++
		if f.n >= n {
			// The in-flight build covers this request: join it.
			p.mu.Unlock()
			<-f.done
			return f.tb
		}
		// The in-flight build is too small; wait for it and re-check — our
		// build will then grow its table instead of starting from scratch.
		p.mu.Unlock()
		<-f.done
		p.mu.Lock()
	}
	f := &solveFlight{n: n, done: make(chan struct{})}
	p.flight = f
	base, warm := p.cached, p.warm
	p.warm = nil // only the first build takes the neighbor's hints
	p.mu.Unlock()

	start := time.Now()
	tb, notes := p.extend(base, warm, n)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	dpSolveSeconds.Observe(ms / 1e3)

	p.mu.Lock()
	p.cached = tb
	p.flight = nil
	p.stats.Solves++
	p.stats.LastSolveMS = ms
	p.stats.TotalSolveMS += ms
	if ms > p.stats.MaxSolveMS {
		p.stats.MaxSolveMS = ms
	}
	p.stats.CoarseSolves += notes.coarseSolves
	if notes.warmStart {
		p.stats.WarmStarts++
	}
	p.mu.Unlock()
	f.tb = tb
	close(f.done)
	return tb
}

// solveNotes reports what a table build did beyond filling cells, for the
// stats counters (accumulated under the planner lock by solve, since the
// build itself runs outside it).
type solveNotes struct {
	coarseSolves uint64
	warmStart    bool
}

// cachedTable returns the planner's current table, if any, without
// waiting on an in-flight build. Warm-start neighbors read hints from it.
func (p *CheckpointPlanner) cachedTable() *table {
	p.mu.Lock()
	tb := p.cached
	p.mu.Unlock()
	return tb
}

// extend builds a table covering n work steps. When base is non-nil its
// rows 1..base.nWork are copied verbatim (they are exact prefixes of the
// larger solve) and only rows base.nWork+1..n are solved; the age grid
// (surv/m1) is shared outright since it depends only on the model and step.
// A published *table is never mutated — extend always returns a fresh
// struct — so readers of the previous table race with nothing. warm, when
// non-nil, is a neighbor planner whose solved table adds scan hints.
func (p *CheckpointPlanner) extend(base *table, warm *CheckpointPlanner, n int) (*table, solveNotes) {
	var tb *table
	lo := 1
	if base != nil {
		tb = &table{
			step:     base.step,
			delta:    base.delta,
			nAges:    base.nAges,
			nWork:    n,
			surv:     base.surv,
			m1:       base.m1,
			value:    make([]float64, (n+1)*base.nAges),
			choice:   make([]int32, (n+1)*base.nAges),
			survZero: base.survZero,
		}
		copy(tb.value, base.value)
		copy(tb.choice, base.choice)
		lo = base.nWork + 1
	} else {
		tb = newTable(p.Model, p.Delta, p.Step, n)
	}
	workers := p.Parallelism()
	var notes solveNotes
	g := p.newGuide(tb, warm, lo, n, workers)
	if g != nil {
		notes.coarseSolves = 1
		notes.warmStart = g.warmRow != nil
	}
	tb.solveRows(g, lo, n, workers)
	return tb, notes
}

// solveRows fills rows lo..hi of the table. Work amounts are solved in
// increasing order; within each row j, age 0 first (the restart fixed
// point rj), then all other ages. Rows depend only on smaller-j rows and
// rj, so the age loop of one row is embarrassingly parallel: it is sharded
// across a worker pool in fixed contiguous ranges, which makes the result
// byte-identical to the serial solve at any worker count (each cell's
// arithmetic is unchanged; only who computes it varies). A non-nil guide
// seeds per-row candidate hints (prepared serially before each row is
// dispatched) and the per-row minima feed the skip bounds of later rows —
// all outside the sharded cell work, so the parallel structure is
// unchanged.
func (tb *table) solveRows(g *dpGuide, lo, hi, workers int) {
	// j = 0: nothing left to do (row stays zero).
	if workers > tb.nAges-1 {
		workers = tb.nAges - 1
	}
	if workers <= 1 || hi < lo {
		for j := lo; j <= hi; j++ {
			rj := tb.solveAge0(j)
			if g != nil {
				g.prepareRow(tb, j)
			}
			tb.solveAges(g, j, rj, 1, tb.nAges)
			if g != nil {
				g.finishRow(tb, j)
			}
		}
		return
	}
	// Persistent pool: one goroutine per fixed age range, fed a row at a
	// time. The per-row barrier (wg) is the only synchronization rows need:
	// it orders every write of row j before every read from row j+1.
	type rowJob struct {
		j  int
		rj float64
	}
	var wg sync.WaitGroup
	feeds := make([]chan rowJob, workers)
	span := (tb.nAges - 1 + workers - 1) / workers
	for w := 0; w < workers; w++ {
		aLo := 1 + w*span
		aHi := aLo + span
		if aHi > tb.nAges {
			aHi = tb.nAges
		}
		feed := make(chan rowJob, 1)
		feeds[w] = feed
		go func(aLo, aHi int) {
			for job := range feed {
				tb.solveAges(g, job.j, job.rj, aLo, aHi)
				wg.Done()
			}
		}(aLo, aHi)
	}
	for j := lo; j <= hi; j++ {
		rj := tb.solveAge0(j)
		if g != nil {
			g.prepareRow(tb, j)
		}
		wg.Add(workers)
		for _, feed := range feeds {
			feed <- rowJob{j: j, rj: rj}
		}
		wg.Wait()
		if g != nil {
			g.finishRow(tb, j)
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
}

// windowStats returns, for a segment occupying ages [a, a+w) (indices), the
// conditional success probability and the conditional expected lost time
// given a failure inside the window, both conditioned on the VM being alive
// at age a.
func (tb *table) windowStats(a, w int) (psucc, elost float64) {
	sa := tb.surv[a]
	if sa <= 0 {
		// VM certainly dead; fail immediately with no time lost.
		return 0, 0
	}
	return tb.windowStatsFrom(sa, tb.m1[a], float64(a)*tb.step, a, w)
}

// windowStatsFrom is windowStats with the start-age lookups (survival sa,
// moment m1a, start time t) hoisted by the caller, so the DP's inner
// candidate-interval loop does not reload them per candidate. sa must be
// positive.
func (tb *table) windowStatsFrom(sa, m1a, t float64, a, w int) (psucc, elost float64) {
	end := a + w
	if end > tb.nAges {
		end = tb.nAges
	}
	se := tb.surv[end]
	psucc = se / sa
	pfailAbs := sa - se // unconditional mass in the window
	if pfailAbs <= 0 {
		return psucc, 0
	}
	// E[x - t | fail in window] = (M1(end) - M1(a) - t*(F(end)-F(a))) / mass.
	mom := tb.m1[end] - m1a
	elost = mom/pfailAbs - t
	if elost < 0 {
		elost = 0
	}
	return psucc, elost
}

// pruneBound caps the candidate scan for a cell starting at age index a:
// it returns the largest first-candidate index worth examining and whether
// the write-free final candidate i=j must then be evaluated separately.
//
// The cut: a checkpointed candidate i < j occupies ages [a, a+i+delta). Once
// that window reaches tb.survZero, its (clamped) end lies in the saturated
// suffix, where surv is exactly zero and m1 bitwise constant: its success
// probability is exactly 0, its continuation term vanishes (0 times a
// finite value), and its conditional loss is the same bits for every
// longer window, so all remaining checkpointed candidates share one value.
// The exhaustive recurrence keeps the first minimizer, so scanning the
// first saturated candidate and skipping its equal-valued successors is
// exact, not approximate. The final candidate i=j omits the checkpoint
// write (w = j, not j+delta) and must still be examined on its own. Without
// a saturated suffix there is no cut: windows clamped at the grid's end
// share se and m1 but not their continuation values.
func (tb *table) pruneBound(a, j int) (hi int, tail bool) {
	if tb.survZero == len(tb.surv) {
		return j, false
	}
	i0 := max(tb.survZero-a-tb.delta, 1)
	if i0 >= j {
		return j, false
	}
	return i0, true
}
