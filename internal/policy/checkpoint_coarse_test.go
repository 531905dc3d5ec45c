package policy

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// TestCoarseFineMatchesExhaustive is the equality gate for the one
// production scan (saturation cap + coarse-to-fine block skips): for every
// model shape, for checkpoint costs zero, below and above the step, serial
// and row-parallel, the solved table must equal the exhaustive reference
// cell for cell (==, not within a tolerance).
func TestCoarseFineMatchesExhaustive(t *testing.T) {
	const jobLen = 2.0
	n := int(math.Round(jobLen / testStep))
	maxPar := runtime.GOMAXPROCS(0)
	if maxPar < 8 {
		maxPar = 8
	}
	for name, m := range solverTestModels() {
		for _, delta := range []float64{0, testDelta, 3 * testStep} {
			want := refSolve(NewCheckpointPlanner(m, delta, testStep), n)
			for _, par := range []int{1, 4, maxPar} {
				p := NewCheckpointPlanner(m, delta, testStep)
				p.SetParallelism(par)
				got := p.solve(jobLen)
				requireTablesEqual(t, fmt.Sprintf("%s/delta=%v/par=%d", name, delta, par), want, got, n)
				if st := p.Stats(); st.CoarseSolves != 1 {
					t.Fatalf("%s/par=%d: CoarseSolves = %d, want 1", name, par, st.CoarseSolves)
				}
			}
		}
	}
}

// TestCoarseFineIncrementalGrowth pins the guided solve's incremental
// path: growing a table must equal the exhaustive reference of the longer
// job.
func TestCoarseFineIncrementalGrowth(t *testing.T) {
	const shortLen, longLen = 0.75, 2.5
	n := int(math.Round(longLen / testStep))
	for name, m := range solverTestModels() {
		p := NewCheckpointPlanner(m, testDelta, testStep)
		p.SetParallelism(1)
		_ = p.solve(shortLen)
		got := p.solve(longLen)
		requireTablesEqual(t, name+"/coarse-fine-grown", refSolve(p, n), got, n)
		if st := p.Stats(); st.CoarseSolves != 2 {
			t.Fatalf("%s: CoarseSolves = %d, want 2 (initial + growth)", name, st.CoarseSolves)
		}
	}
}

// TestWarmStartMatchesCold gates cross-model warm starts: a planner
// seeded with a neighbor's choice table (nearby but different bathtub
// parameters) must produce exactly the exhaustive reference table — the
// neighbor's hints may only speed the scan up, never change it.
func TestWarmStartMatchesCold(t *testing.T) {
	const jobLen = 2.0
	n := int(math.Round(jobLen / testStep))
	for name, m := range solverTestModels() {
		bt := m.Bathtub()
		// A neighbor within a few percent on every parameter.
		neighbor := core.New(dist.NewBathtub(bt.A*1.03, bt.Tau1*0.98, bt.Tau2*1.02, bt.B, bt.L))
		np := NewCheckpointPlanner(neighbor, testDelta, testStep)
		np.SetParallelism(1)
		_ = np.solve(jobLen) // neighbor has a solved table to lend

		warm := NewCheckpointPlanner(m, testDelta, testStep)
		warm.SetParallelism(1)
		warm.warm = np
		got := warm.solve(jobLen)
		requireTablesEqual(t, name+"/warm-start", refSolve(warm, n), got, n)
		if st := warm.Stats(); st.WarmStarts != 1 {
			t.Fatalf("%s: WarmStarts = %d, want 1", name, st.WarmStarts)
		}
	}
}
