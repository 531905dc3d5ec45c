package policy

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// Equality gates for the solver's structure: the row-parallel solve and the
// incremental table growth must produce tables identical cell for cell
// (==, not within a tolerance) to the serial, from-scratch, exhaustive
// reference (refSolve in checkpoint_flat_test.go). Shapes beyond the paper's fitted
// bathtub are covered by driving the bathtub family into its limiting
// regimes: an infant-mortality-dominated (Weibull-like) shape and a
// near-linear-CDF (uniform-like) shape.
func solverTestModels() map[string]*core.Model {
	return map[string]*core.Model{
		// The paper-typical fitted bathtub: infant failures, a plateau,
		// and a deadline spike.
		"bathtub": core.New(dist.NewBathtub(0.45, 1.0, 0.8, 24, 24)),
		// Weibull-like: a heavy decaying infant-failure term and a spike
		// pushed past the deadline, leaving a monotone-decreasing hazard.
		"weibull-like": core.New(dist.NewBathtub(0.8, 0.5, 5, 30, 24)),
		// Uniform-like: Tau1 >> L makes 1-exp(-t/Tau1) ~ t/Tau1, a nearly
		// constant density over [0, L].
		"uniform-like": core.New(dist.NewBathtub(1.0, 100, 50, 200, 24)),
	}
}

// requireTablesEqual compares a solved table with the exhaustive reference
// cell for cell over the first n work rows.
func requireTablesEqual(t *testing.T, label string, want *refTable, got *table, n int) {
	t.Helper()
	if want.nAges != got.nAges || want.delta != got.delta {
		t.Fatalf("%s: grid mismatch: nAges %d vs %d, delta %d vs %d",
			label, want.nAges, got.nAges, want.delta, got.delta)
	}
	for j := 0; j <= n; j++ {
		for a := 0; a < want.nAges; a++ {
			if w, g := want.value[j][a], got.valueAt(j, a); w != g {
				t.Fatalf("%s: value(%d,%d) = %v, want %v", label, j, a, g, w)
			}
			if w, g := want.choice[j][a], got.choiceAt(j, a); w != g {
				t.Fatalf("%s: choice(%d,%d) = %d, want %d", label, j, a, g, w)
			}
		}
	}
}

// TestParallelSolveByteIdentical pins the row-parallel solve to the serial
// reference at worker counts 1, 2, and max(GOMAXPROCS, 8): same table, bit
// for bit, for every model shape.
func TestParallelSolveByteIdentical(t *testing.T) {
	const jobLen = 2.0
	maxPar := runtime.GOMAXPROCS(0)
	if maxPar < 8 {
		maxPar = 8 // exercise more workers than cores; correctness is the point
	}
	for name, m := range solverTestModels() {
		n := int(math.Round(jobLen / testStep))
		want := refSolve(NewCheckpointPlanner(m, testDelta, testStep), n)
		for _, par := range []int{1, 2, maxPar} {
			p := NewCheckpointPlanner(m, testDelta, testStep)
			p.SetParallelism(par)
			got := p.solve(jobLen)
			requireTablesEqual(t, name+"/parallel", want, got, n)
		}
	}
}

// TestIncrementalGrowthMatchesScratch verifies that growing a cached table
// (short job first, longer job after) yields exactly the table a
// from-scratch solve of the longer job produces, serial and parallel.
func TestIncrementalGrowthMatchesScratch(t *testing.T) {
	const shortLen, longLen = 0.75, 2.5
	n := int(math.Round(longLen / testStep))
	for name, m := range solverTestModels() {
		want := refSolve(NewCheckpointPlanner(m, testDelta, testStep), n)
		for _, tc := range []struct {
			label string
			par   int
		}{
			{"grown-serial", 1},
			{"grown-parallel", 4},
		} {
			p := NewCheckpointPlanner(m, testDelta, testStep)
			p.SetParallelism(tc.par)
			small := p.solve(shortLen)
			got := p.solve(longLen)
			if got == small {
				t.Fatalf("%s/%s: solve did not grow the table", name, tc.label)
			}
			if got.nWork < n {
				t.Fatalf("%s/%s: grown table covers %d steps, want >= %d", name, tc.label, got.nWork, n)
			}
			requireTablesEqual(t, name+"/"+tc.label, want, got, n)
			if st := p.Stats(); st.Solves != 2 {
				t.Fatalf("%s/%s: %d solves recorded, want 2 (initial + growth)", name, tc.label, st.Solves)
			}
		}
	}
}

// TestSolveSingleflightJoins pins the dedup path deterministically: a
// caller whose request fits an in-flight solve blocks on that flight and
// returns its table instead of starting a second build.
func TestSolveSingleflightJoins(t *testing.T) {
	p := NewCheckpointPlanner(paperModel(), testDelta, testStep)
	p.SetParallelism(1)
	f := &solveFlight{n: 100, done: make(chan struct{})}
	p.mu.Lock()
	p.flight = f
	p.mu.Unlock()
	got := make(chan *table, 1)
	go func() { got <- p.solve(1.0) }() // needs n=12 <= 100: must join the flight
	select {
	case <-got:
		t.Fatal("solve returned before the in-flight build finished")
	case <-time.After(20 * time.Millisecond):
	}
	tb, _ := p.extend(nil, nil, 100)
	f.tb = tb
	close(f.done)
	select {
	case res := <-got:
		if res != tb {
			t.Fatal("joined caller did not receive the flight's table")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joined caller never woke up")
	}
	if st := p.Stats(); st.DedupWaits != 1 {
		t.Fatalf("DedupWaits = %d, want 1", st.DedupWaits)
	}
}

// TestConcurrentPlansSolveOnce runs many goroutines planning the same job
// length on a cold planner: exactly one DP build may happen — every other
// caller either joins the flight or hits the freshly cached table — and
// all callers must read identical results.
func TestConcurrentPlansSolveOnce(t *testing.T) {
	p := NewCheckpointPlanner(paperModel(), testDelta, testStep)
	p.SetParallelism(2)
	const goroutines = 16
	results := make([]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = p.ExpectedMakespan(2.0, 0)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d read %v, goroutine 0 read %v", g, results[g], results[0])
		}
	}
	if st := p.Stats(); st.Solves != 1 {
		t.Fatalf("Solves = %d, want exactly 1", st.Solves)
	} else if st.Inflight != 0 {
		t.Fatalf("Inflight = %d after all plans returned", st.Inflight)
	}
}

// TestPlannerStatsLatency sanity-checks the latency accounting: one solve
// records one build with a non-negative duration and the table size.
func TestPlannerStatsLatency(t *testing.T) {
	p := NewCheckpointPlanner(paperModel(), testDelta, testStep)
	p.SetParallelism(1)
	_ = p.ExpectedMakespan(1.0, 0)
	st := p.Stats()
	if st.Solves != 1 || st.LastSolveMS < 0 || st.TotalSolveMS < st.LastSolveMS ||
		st.MaxSolveMS < st.LastSolveMS {
		t.Fatalf("inconsistent stats after one solve: %+v", st)
	}
	if want := int(math.Round(1.0 / testStep)); st.TableWorkSteps != want {
		t.Fatalf("TableWorkSteps = %d, want %d", st.TableWorkSteps, want)
	}
}
