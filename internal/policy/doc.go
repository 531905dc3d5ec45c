// Package policy implements the paper's model-driven resource management
// policies (Section 4): the VM reuse / job scheduling policy that decides
// whether a job should run on an existing VM or a fresh one, and the
// dynamic-programming checkpointing policy for bathtub failure rates, plus
// the memoryless and Young-Daly baselines they are compared against in
// Section 6.2.
//
// # The checkpoint DP and its cost
//
// CheckpointPlanner discretizes time into steps of Step hours over the
// model's deadline L, giving nAges = ceil(L/Step)+1 age grid points, and
// solves E[M*(j, a)] — the expected makespan of j remaining work steps on
// a VM of age index a — for every j up to the job length n. Each cell
// scans up to j candidate first intervals, so the solve is
//
//	O(sum_j j * nAges) = O(n^2 * nAges)
//
// time and O(n * nAges) table space. At the experiments' default grid
// (4-hour job, 2-minute resolution, 24-hour deadline) that is a ~20 ms
// build — the dominant cold-path cost of the whole system, since every
// other hot path (sampling, Monte Carlo, progress streaming) is nano- to
// micro-scale. The solved table is what the schedule cache in this
// package shares process-wide, so the build runs once per distinct
// (model identity, delta, step), not once per session.
//
// # Row-parallel structure
//
// Within one work level j, the age-0 cell is the restart fixed point R_j
// (self-referential, solved algebraically per candidate; DESIGN.md note
// 3) and every cell (j, a>0) depends only on rows j' < j and on R_j.
// solveRows therefore solves R_j serially, then shards the age loop
// across a persistent worker pool in fixed contiguous ranges with one
// barrier per row. Sharding only redistributes which goroutine computes
// which cell — each cell's arithmetic is untouched — so the table is
// byte-identical at every worker count (TestParallelSolveByteIdentical);
// SetParallelism merely tunes cold-solve latency. Workers default to
// GOMAXPROCS via the package default (SetDefaultPlannerParallelism).
//
// # Incremental growth
//
// A table solved for n work steps contains the value function of every
// shorter job, and rows 1..n of a larger table are exact prefixes: row j
// reads only rows below it and the shared age grid. When a longer job
// arrives, extend copies the cached rows and solves only the new ones
// instead of re-solving from scratch (TestIncrementalGrowthMatchesScratch
// pins grown == scratch cell for cell). Published tables are never
// mutated — growth builds a fresh struct — so readers race with nothing.
//
// # The saturation cap
//
// Every cell's candidate scan is capped at the grid's saturated suffix:
// the first age index from which survival is exactly zero and the first
// partial moment bitwise constant through the end of the grid. On the
// normalized bathtub grid survival reaches exact zero only at
// deadline-clamped grid points (t = L), where both arrays are computed
// from the same clamped time. Every checkpointed candidate whose window
// reaches the suffix thus evaluates to exactly E[lost]+R_j — the same
// bits — and since the exhaustive recurrence keeps the first minimizer,
// scanning one saturated candidate and skipping its equal-valued
// successors changes nothing. The write-free final candidate i=j is always
// examined separately, because with Delta > Step its window can be
// shorter than a checkpointed one. A bathtub whose raw CDF exceeds 1
// before the deadline keeps the clamped survival positive everywhere; such
// a grid has no saturated suffix and no cap (windows clamped at the grid's
// end share survival but not their continuation values). The cap is a
// per-cell loop bound with no per-candidate checks: for jobs short
// relative to the deadline it costs nothing, and it pays off when job
// length approaches the deadline grid (BenchmarkDPSolveLong).
//
// # Cold-miss dedup (singleflight)
//
// Concurrent Plan calls on one planner no longer serialize a build behind
// the planner mutex: the first caller needing a larger table starts a
// flight, runs the build outside the lock, and every caller whose request
// the flight covers joins it and shares the result. Callers needing an
// even larger table wait, then grow the fresh result incrementally. N
// sessions (or sweep cells) cold-starting the same model therefore pay
// for exactly one build. SolveStats counts builds, dedup joins, and
// build latency per planner; the shared cache exposes them per key via
// SharedPlannerSolveStats (surfaced at /api/stats as dp_solves).
//
// # Coarse-to-fine candidate elimination (exact)
//
// The same scan also attacks the O(n^2 * nAges) candidate loop itself.
// Before each build, a guide solve at 4x the step resolution (unguided,
// with only the saturation cap, so guides never recurse) suggests a
// first interval for every cell; with the previous age's winner and an
// optional warm-start neighbor's choice, these hints seed each cell's
// incumbent with an exactly evaluated candidate value. Each cell
// minimizes over first-interval candidates i, whose cost is monotone in
// two precomputed per-age arrays (survival and the first partial moment).
// Before scanning a block of skipBlock=16 consecutive candidates one by
// one, the solver evaluates an admissible lower bound for the whole block
// from windowed extrema of those arrays (min/max over each 16-candidate
// window, built once per solve) and from the minima of the continuation
// rows. Blocks whose bound exceeds the incumbent are skipped without
// touching their cells; blocks that might win fall through to the exact
// per-candidate loop. A block is skipped only when the bound proves every
// candidate in it is strictly worse than a value the scan itself
// produced, so the selected minimizer — and therefore the table — is
// cell-for-cell identical to the exhaustive recurrence. The tests keep
// that recurrence as a naive reference solver and gate the production
// table against it bit for bit across model shapes, checkpoint costs,
// worker counts, incremental growth, and warm starts
// (TestCoarseFineMatchesExhaustive and FuzzCheckpointDPMatchesReference).
// Grids too coarse to refine (a guide step past the deadline, or fewer
// than four work steps) run the capped scan alone.
//
// # Cross-model warm starts
//
// The shared planner cache keys planners by exact (model identity, delta,
// step). A refit model misses that key even when its bathtub parameters
// moved a fraction of a percent — yet the optimal candidate index per
// cell is stable under small parameter perturbations. On a cache miss,
// findWarmNeighbor scans the planner LRU for an entry whose parameters
// all sit within DefaultWarmStartTolerance (10% relative) of the new
// model's; a hit lends its solved table's per-cell minimizers to the new
// planner as scan hints: each cell probes the neighbor's argmin first and
// uses its cost as the starting incumbent, which makes the coarse-to-fine
// block bounds eliminate nearly everything when the hint is right. Hints
// only seed incumbents — every candidate a bound cannot exclude is still
// scanned — so warm-started tables remain exact. Only a planner's first
// build takes the neighbor's hints; it then drops the reference, so a
// chain of warm-seeded planners never keeps LRU-evicted neighbors (and
// their tables) reachable. PlannerWarmSeeds / SolveStats.WarmStarts count
// lends and seeded builds.
package policy
