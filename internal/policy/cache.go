package policy

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
)

// This file implements the process-wide schedule cache. A multi-session
// service (internal/serve) runs many independent simulations concurrently,
// and the most expensive artifacts those sessions need — DP checkpoint
// schedules (an O(T^3) solve per model/delta/step) and, more cheaply, reuse
// schedulers — depend only on the model's parameters, not on which session
// asked. Caching them per process means the first session pays for a solve
// and every later session with the same (model identity, delta, step)
// reuses it.
//
// Model identity is the fitted bathtub parameter tuple (A, Tau1, Tau2, B,
// L): a core.Model is fully determined by it, so two sessions that fit
// identical parameters share cache entries even when they hold distinct
// *core.Model pointers. Cached values are themselves safe for concurrent
// use (ModelScheduler is immutable; CheckpointPlanner serializes its solves
// internally) and deterministic — a planner's value table for j work steps
// does not depend on how large the table has grown, so shared use cannot
// perturb per-session results.
//
// Because sessions configs are user-supplied, each artifact kind is bounded
// by an LRU (DefaultSharedCacheCapacity entries, configurable via
// SetSharedCacheCapacity): an adversary cycling through distinct model
// parameters evicts old entries instead of growing the maps monotonically.
// Eviction never breaks running sessions — they hold direct pointers to
// their artifacts; only future lookups re-pay the solve.

// DefaultSharedCacheCapacity is the per-kind entry bound (schedulers and
// planners each get this many slots). A planner's DP table for the studied
// grids is a few MB; 64 of each comfortably covers every scenario sweep in
// the paper while bounding adversarial configs.
const DefaultSharedCacheCapacity = 64

// schedulerKey identifies one reuse scheduler: model identity + criterion.
type schedulerKey struct {
	bt   dist.Bathtub
	crit Criterion
}

// plannerKey identifies one checkpoint planner: model identity + the DP's
// checkpoint cost and time resolution.
type plannerKey struct {
	bt          dist.Bathtub
	delta, step float64
}

// CacheStats counts hits, misses, and LRU evictions of the shared schedule
// cache, split by artifact kind. Planner misses are the expensive ones
// (each triggers a DP table build on first Plan).
type CacheStats struct {
	SchedulerHits      uint64 `json:"scheduler_hits"`
	SchedulerMisses    uint64 `json:"scheduler_misses"`
	SchedulerEvictions uint64 `json:"scheduler_evictions"`
	PlannerHits        uint64 `json:"planner_hits"`
	PlannerMisses      uint64 `json:"planner_misses"`
	PlannerEvictions   uint64 `json:"planner_evictions"`
	// PlannerWarmSeeds counts planner misses that found a warm-start
	// neighbor: a cached planner on the same (delta, step) grid whose
	// bathtub parameters are all within DefaultWarmStartTolerance, lent
	// to the new planner as a hint source for its cold solve.
	PlannerWarmSeeds uint64 `json:"planner_warm_seeds"`
	// Capacity is the per-kind LRU bound currently in force.
	Capacity int `json:"capacity"`
}

// HitRate returns the overall fraction of lookups served from cache, or 0
// before any lookup.
func (c CacheStats) HitRate() float64 {
	hits := c.SchedulerHits + c.PlannerHits
	total := hits + c.SchedulerMisses + c.PlannerMisses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// lru is a tiny generic LRU: map for lookup, list for recency. Not safe for
// concurrent use; the scheduleCache's mutex guards it.
type lru[K comparable, V any] struct {
	cap     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{
		cap:     capacity,
		entries: make(map[K]*list.Element),
		order:   list.New(),
	}
}

// get returns the value and marks it most recently used.
func (l *lru[K, V]) get(key K) (V, bool) {
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts a value, evicting least recently used entries beyond
// capacity. It returns the number of evictions.
func (l *lru[K, V]) put(key K, val V) int {
	if el, ok := l.entries[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		l.order.MoveToFront(el)
		return 0
	}
	l.entries[key] = l.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	return l.trim()
}

// trim evicts until the LRU fits its capacity, returning the eviction
// count.
func (l *lru[K, V]) trim() int {
	evicted := 0
	for l.cap > 0 && l.order.Len() > l.cap {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.entries, oldest.Value.(*lruEntry[K, V]).key)
		evicted++
	}
	return evicted
}

func (l *lru[K, V]) len() int { return l.order.Len() }

// each calls fn for every entry, most recently used first.
func (l *lru[K, V]) each(fn func(K, V)) {
	for el := l.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[K, V])
		fn(e.key, e.val)
	}
}

type scheduleCache struct {
	mu         sync.Mutex
	capacity   int
	schedulers *lru[schedulerKey, *ModelScheduler]
	planners   *lru[plannerKey, *CheckpointPlanner]
	stats      CacheStats
}

func newScheduleCache(capacity int) *scheduleCache {
	return &scheduleCache{
		capacity:   capacity,
		schedulers: newLRU[schedulerKey, *ModelScheduler](capacity),
		planners:   newLRU[plannerKey, *CheckpointPlanner](capacity),
	}
}

// shared is the process-wide cache instance.
var shared = newScheduleCache(DefaultSharedCacheCapacity)

// SetSharedCacheCapacity rebounds the per-kind LRU capacity (entries are
// retained, trimming the least recently used beyond the new bound). A
// capacity <= 0 resets to the default.
func SetSharedCacheCapacity(capacity int) {
	if capacity <= 0 {
		capacity = DefaultSharedCacheCapacity
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	shared.capacity = capacity
	shared.schedulers.cap = capacity
	shared.planners.cap = capacity
	shared.stats.SchedulerEvictions += uint64(shared.schedulers.trim())
	shared.stats.PlannerEvictions += uint64(shared.planners.trim())
}

// SharedScheduler returns the process-wide reuse scheduler for the model's
// parameters and the given criterion, creating it on first use. The
// returned scheduler is immutable and safe for concurrent use by any number
// of sessions.
func SharedScheduler(m *core.Model, crit Criterion) *ModelScheduler {
	if m == nil {
		panic("policy: SharedScheduler with nil model")
	}
	key := schedulerKey{bt: m.Bathtub(), crit: crit}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if sc, ok := shared.schedulers.get(key); ok {
		shared.stats.SchedulerHits++
		return sc
	}
	shared.stats.SchedulerMisses++
	sc := &ModelScheduler{Model: m, Criterion: crit}
	shared.stats.SchedulerEvictions += uint64(shared.schedulers.put(key, sc))
	return sc
}

// SharedPlanner returns the process-wide checkpoint planner for (model
// identity, delta, step), creating it on first use. All sessions with the
// same key share one planner and therefore one DP table: the O(T^3) solve
// happens once per process, not once per session. Parameters are validated
// exactly as NewCheckpointPlanner validates them.
func SharedPlanner(m *core.Model, delta, step float64) *CheckpointPlanner {
	if m == nil {
		panic("policy: SharedPlanner with nil model")
	}
	if delta < 0 || step <= 0 || step > m.Deadline() {
		panic(fmt.Sprintf("policy: invalid planner parameters delta=%v step=%v", delta, step))
	}
	key := plannerKey{bt: m.Bathtub(), delta: delta, step: step}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if p, ok := shared.planners.get(key); ok {
		shared.stats.PlannerHits++
		return p
	}
	shared.stats.PlannerMisses++
	p := NewCheckpointPlanner(m, delta, step)
	// When another cached planner models nearby hardware on the same grid,
	// lend its solved table as a warm-start hint source for the cold solve
	// (exact, see checkpoint_coarse.go).
	if w := findWarmNeighbor(key); w != nil {
		p.warm = w
		shared.stats.PlannerWarmSeeds++
	}
	shared.stats.PlannerEvictions += uint64(shared.planners.put(key, p))
	return p
}

// DefaultWarmStartTolerance is the per-parameter relative distance within
// which a cached planner's bathtub counts as a warm-start neighbor for a
// new one. Refits of the same hardware drift each parameter by a few
// percent; 10% admits those while rejecting genuinely different models
// (whose hints would still be exact, merely useless).
const DefaultWarmStartTolerance = 0.10

// findWarmNeighbor scans the planner LRU (most recently used first, under
// the cache lock) for a planner on the same (delta, step) grid whose
// bathtub parameters are all within DefaultWarmStartTolerance of key's.
// The neighbor's solved table only seeds skip bounds — the cold solve's
// output is byte-identical with or without it (see TestWarmStartMatchesCold).
func findWarmNeighbor(key plannerKey) *CheckpointPlanner {
	var found *CheckpointPlanner
	shared.planners.each(func(k plannerKey, p *CheckpointPlanner) {
		if found != nil || k.delta != key.delta || k.step != key.step {
			return
		}
		if bathtubNear(k.bt, key.bt, DefaultWarmStartTolerance) {
			found = p
		}
	})
	return found
}

// bathtubNear reports whether every parameter of a is within rel relative
// distance of b's (symmetric in the larger magnitude).
func bathtubNear(a, b dist.Bathtub, rel float64) bool {
	near := func(x, y float64) bool {
		d := math.Abs(x - y)
		m := math.Max(math.Abs(x), math.Abs(y))
		return d <= rel*m
	}
	return near(a.A, b.A) && near(a.Tau1, b.Tau1) && near(a.Tau2, b.Tau2) &&
		near(a.B, b.B) && near(a.L, b.L)
}

// PlannerKeyStats is one cached planner's identity plus its solve
// counters, the per-key view of the DP cold path: how many table builds
// this (model, delta, step) has paid for, how many callers were deduped
// onto an in-flight build, and how long the builds took.
type PlannerKeyStats struct {
	// Model is the bathtub parameter tuple rendered as a string (the cache
	// key's model identity).
	Model string  `json:"model"`
	Delta float64 `json:"delta"`
	Step  float64 `json:"step"`
	SolveStats
}

// SharedPlannerSolveStats snapshots the solve counters of every planner in
// the shared cache, most recently used first. Planners evicted from the
// LRU take their counters with them; the aggregate CacheStats counters are
// the durable totals.
func SharedPlannerSolveStats() []PlannerKeyStats {
	shared.mu.Lock()
	planners := make([]*CheckpointPlanner, 0, shared.planners.len())
	keys := make([]plannerKey, 0, shared.planners.len())
	shared.planners.each(func(k plannerKey, p *CheckpointPlanner) {
		keys = append(keys, k)
		planners = append(planners, p)
	})
	shared.mu.Unlock()
	// Planner stats are read outside the cache lock: each planner has its
	// own mutex, and holding both invites ordering trouble for no benefit.
	out := make([]PlannerKeyStats, len(planners))
	for i, p := range planners {
		out[i] = PlannerKeyStats{
			Model:      keys[i].bt.String(),
			Delta:      keys[i].delta,
			Step:       keys[i].step,
			SolveStats: p.Stats(),
		}
	}
	return out
}

// SharedCacheStats returns a snapshot of the cache's hit/miss/eviction
// counters and the capacity in force.
func SharedCacheStats() CacheStats {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	st := shared.stats
	st.Capacity = shared.capacity
	return st
}

// ResetSharedCache empties the cache and zeroes its counters, keeping the
// configured capacity. It exists for tests and benchmarks that measure
// cold-start behavior; services never need it (entries are bounded by the
// LRU and small compared to the solves they amortize).
func ResetSharedCache() {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	shared.schedulers = newLRU[schedulerKey, *ModelScheduler](shared.capacity)
	shared.planners = newLRU[plannerKey, *CheckpointPlanner](shared.capacity)
	shared.stats = CacheStats{}
}
