package policy

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/dist"
)

func cacheTestModel() *core.Model {
	return core.New(dist.NewBathtub(0.45, 1.0, 0.8, 24, 24))
}

func TestSharedPlannerComputedOncePerIdentity(t *testing.T) {
	ResetSharedCache()
	defer ResetSharedCache()

	// Two distinct *core.Model values with identical parameters — the
	// situation of two sessions each fitting the same environment.
	m1, m2 := cacheTestModel(), cacheTestModel()
	if m1 == m2 {
		t.Fatal("test needs distinct model pointers")
	}
	p1 := SharedPlanner(m1, 0.1, 0.25)
	p2 := SharedPlanner(m2, 0.1, 0.25)
	if p1 != p2 {
		t.Fatal("same (model identity, delta, step) produced two planners")
	}
	// Different delta or step is a different artifact.
	if SharedPlanner(m1, 0.2, 0.25) == p1 {
		t.Fatal("different delta shared a planner")
	}
	if SharedPlanner(m1, 0.1, 0.5) == p1 {
		t.Fatal("different step shared a planner")
	}
	st := SharedCacheStats()
	if st.PlannerMisses != 3 || st.PlannerHits != 1 {
		t.Fatalf("stats = %+v, want 3 misses / 1 hit", st)
	}
}

func TestSharedSchedulerKeyedByCriterion(t *testing.T) {
	ResetSharedCache()
	defer ResetSharedCache()

	m := cacheTestModel()
	a := SharedScheduler(m, MinimizeFailure)
	b := SharedScheduler(cacheTestModel(), MinimizeFailure)
	if a != b {
		t.Fatal("identical models did not share a scheduler")
	}
	if SharedScheduler(m, MinimizeMakespan) == a {
		t.Fatal("different criteria shared a scheduler")
	}
	if a.ShouldReuse(1, 2) != NewFailureAwareScheduler(m).ShouldReuse(1, 2) {
		t.Fatal("shared scheduler disagrees with a fresh one")
	}
}

// TestSharedCacheConcurrentAccess hammers the cache from many goroutines;
// run with -race. Every goroutine must observe the same planner and the
// same schedule values.
func TestSharedCacheConcurrentAccess(t *testing.T) {
	ResetSharedCache()
	defer ResetSharedCache()

	const workers = 8
	planners := make([]*CheckpointPlanner, workers)
	scheds := make([]Schedule, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := SharedPlanner(cacheTestModel(), 0.05, 0.25)
			planners[i] = p
			scheds[i] = p.Plan(2, 0)
			SharedScheduler(cacheTestModel(), MinimizeFailure).ShouldReuse(3, 1)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if planners[i] != planners[0] {
			t.Fatal("concurrent lookups produced distinct planners")
		}
		if len(scheds[i].Intervals) != len(scheds[0].Intervals) ||
			scheds[i].ExpectedMakespan != scheds[0].ExpectedMakespan {
			t.Fatalf("concurrent plans disagree: %+v vs %+v", scheds[i], scheds[0])
		}
	}
}

// TestSharedCacheLRUEviction fills the cache beyond a small capacity and
// checks that the least recently used entries fall out, the eviction
// counters advance, and recently touched entries survive.
func TestSharedCacheLRUEviction(t *testing.T) {
	SetSharedCacheCapacity(2)
	ResetSharedCache()
	defer func() {
		SetSharedCacheCapacity(0) // back to the default
		ResetSharedCache()
	}()

	model := func(a float64) *core.Model {
		return core.New(dist.NewBathtub(a, 1.0, 0.8, 24, 24))
	}
	s1 := SharedScheduler(model(0.41), MinimizeFailure)
	SharedScheduler(model(0.42), MinimizeFailure)
	// Touch s1 so 0.42 is now the least recently used.
	if SharedScheduler(model(0.41), MinimizeFailure) != s1 {
		t.Fatal("lookup within capacity missed")
	}
	// Inserting a third evicts 0.42, not the recently used 0.41.
	SharedScheduler(model(0.43), MinimizeFailure)
	st := SharedCacheStats()
	if st.SchedulerEvictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.SchedulerEvictions, st)
	}
	if st.Capacity != 2 {
		t.Fatalf("capacity = %d, want 2", st.Capacity)
	}
	if SharedScheduler(model(0.41), MinimizeFailure) != s1 {
		t.Fatal("recently used entry was evicted")
	}
	// 0.42 was evicted: looking it up again is a miss.
	misses := SharedCacheStats().SchedulerMisses
	SharedScheduler(model(0.42), MinimizeFailure)
	if got := SharedCacheStats().SchedulerMisses; got != misses+1 {
		t.Fatalf("re-lookup of evicted entry: misses %d -> %d, want +1", misses, got)
	}
}

// TestSharedCacheCapacityShrinkTrims lowers the capacity below the live
// entry count and checks the cache trims immediately.
func TestSharedCacheCapacityShrinkTrims(t *testing.T) {
	SetSharedCacheCapacity(8)
	ResetSharedCache()
	defer func() {
		SetSharedCacheCapacity(0)
		ResetSharedCache()
	}()

	for i := 0; i < 5; i++ {
		SharedScheduler(core.New(dist.NewBathtub(0.40+float64(i)/100, 1.0, 0.8, 24, 24)), MinimizeFailure)
	}
	SetSharedCacheCapacity(2)
	st := SharedCacheStats()
	if st.SchedulerEvictions != 3 {
		t.Fatalf("shrink evicted %d, want 3 (stats %+v)", st.SchedulerEvictions, st)
	}
	if shared.schedulers.len() != 2 {
		t.Fatalf("cache holds %d entries after shrink to 2", shared.schedulers.len())
	}
}

// TestSharedPlannerWarmSeeding pins the cross-model warm-start path: a
// planner miss whose bathtub parameters sit within
// DefaultWarmStartTolerance of a cached planner on the same grid borrows
// that planner as hint source (PlannerWarmSeeds advances, and the new
// planner's solves record WarmStarts once the neighbor has a table), while
// a far-away model or a different grid does not.
func TestSharedPlannerWarmSeeding(t *testing.T) {
	ResetSharedCache()
	defer ResetSharedCache()

	base := SharedPlanner(cacheTestModel(), 0.1, 0.25)
	_ = base.ExpectedMakespan(2, 0) // neighbor has a solved table to lend
	if st := base.Stats(); st.CoarseSolves != 1 {
		t.Fatalf("shared planner ran %d guide solves, want 1", st.CoarseSolves)
	}

	// Within tolerance on every parameter, same grid: seeded.
	nearModel := core.New(dist.NewBathtub(0.45*1.05, 1.0*0.97, 0.8*1.04, 24, 24))
	near := SharedPlanner(nearModel, 0.1, 0.25)
	if near.warm != base {
		t.Fatal("near-parameter planner was not warm-seeded from the cached one")
	}
	if got := SharedCacheStats().PlannerWarmSeeds; got != 1 {
		t.Fatalf("PlannerWarmSeeds = %d, want 1", got)
	}
	_ = near.ExpectedMakespan(2, 0)
	if st := near.Stats(); st.WarmStarts != 1 {
		t.Fatalf("seeded planner recorded WarmStarts = %d, want 1", st.WarmStarts)
	}
	if near.warm != nil {
		t.Fatal("first build did not release the warm-start neighbor")
	}

	// Same parameters, different grid: no seed.
	offGrid := SharedPlanner(nearModel, 0.1, 0.5)
	if offGrid.warm != nil {
		t.Fatal("different-grid planner was warm-seeded")
	}
	// Far parameters, same grid: no seed.
	farModel := core.New(dist.NewBathtub(0.9, 1.0, 0.8, 24, 24))
	far := SharedPlanner(farModel, 0.1, 0.25)
	if far.warm != nil {
		t.Fatal("far-parameter planner was warm-seeded")
	}
	if got := SharedCacheStats().PlannerWarmSeeds; got != 1 {
		t.Fatalf("PlannerWarmSeeds = %d after off-grid/far lookups, want still 1", got)
	}
}

// TestWarmChainReleasesEvictedPlanners pins the warm-start lifetime: each
// warm-seeded planner lets go of its neighbor once its first build has
// taken the hints, so a chain of near-neighbor planners does not keep the
// ones the LRU already evicted reachable.
func TestWarmChainReleasesEvictedPlanners(t *testing.T) {
	SetSharedCacheCapacity(2)
	ResetSharedCache()
	defer func() {
		SetSharedCacheCapacity(0)
		ResetSharedCache()
	}()

	var first weak.Pointer[CheckpointPlanner]
	for i := 0; i < 5; i++ {
		// Each model is within DefaultWarmStartTolerance of the previous
		// one, so every miss after the first is warm-seeded.
		m := core.New(dist.NewBathtub(0.45*(1+0.02*float64(i)), 1.0, 0.8, 24, 24))
		p := SharedPlanner(m, 0.1, 0.25)
		if i == 0 {
			first = weak.Make(p)
		}
		_ = p.ExpectedMakespan(2, 0)
	}
	if got := SharedCacheStats().PlannerWarmSeeds; got != 4 {
		t.Fatalf("PlannerWarmSeeds = %d, want 4", got)
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("evicted planner is still reachable through the warm-start chain")
	}
}
