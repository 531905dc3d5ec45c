package policy

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// clampFuzz maps an arbitrary fuzz float into [lo, hi]; NaN maps to lo.
func clampFuzz(x, lo, hi float64) float64 {
	if !(x >= lo) {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FuzzCheckpointDPMatchesReference drives the production solve — saturation
// cap, coarse-to-fine block skips, row parallelism, incremental growth —
// over arbitrary bathtub shapes, checkpoint costs (including costs longer
// than a step) and job lengths, and demands the exhaustive reference table
// bit for bit. The bathtub box spans the paper's fitted shape and the
// Weibull-like and uniform-like limits of solverTestModels; the seed corpus
// in testdata/fuzz covers those three. The 5-minute grid keeps each
// execution around a millisecond.
func FuzzCheckpointDPMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, tau1, tau2, b, deltaSteps, jobLen float64, par4, growFirst bool) {
		m := core.New(dist.NewBathtub(
			clampFuzz(a, 0.05, 1),
			clampFuzz(tau1, 0.1, 100),
			clampFuzz(tau2, 0.1, 50),
			clampFuzz(b, 12, 200),
			24,
		))
		delta := clampFuzz(deltaSteps, 0, 4) * testStep
		jobLen = clampFuzz(jobLen, testStep, 4)
		p := NewCheckpointPlanner(m, delta, testStep)
		if par4 {
			p.SetParallelism(4)
		} else {
			p.SetParallelism(1)
		}
		if growFirst {
			_ = p.solve(jobLen / 2)
		}
		got := p.solve(jobLen)
		n := int(math.Round(jobLen / testStep))
		requireTablesEqual(t, m.Bathtub().String(), refSolve(p, n), got, n)
	})
}
