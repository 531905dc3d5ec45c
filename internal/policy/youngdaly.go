package policy

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
)

// YoungDalyInterval returns the classic Young-Daly periodic checkpointing
// interval sqrt(2 * delta * MTTF) (Section 4.3), where delta is the
// checkpoint cost. Both arguments are in hours.
func YoungDalyInterval(delta, mttf float64) float64 {
	if delta < 0 || mttf <= 0 {
		panic(fmt.Sprintf("policy: invalid Young-Daly parameters delta=%v mttf=%v", delta, mttf))
	}
	return math.Sqrt(2 * delta * mttf)
}

// FixedIntervalEvaluator computes the expected makespan of periodic
// checkpointing with a constant interval, evaluated under the true bathtub
// model. This is the Young-Daly baseline of Figure 8: the policy believes
// failures are memoryless (interval from the initial failure rate, MTTF = 1
// hour in the paper), but reality is bathtub-shaped.
type FixedIntervalEvaluator struct {
	Model    *core.Model
	Delta    float64 // checkpoint cost, hours
	Interval float64 // fixed checkpoint interval, hours
	Step     float64 // DP time resolution, hours

	mu     sync.Mutex
	cached *fixedTable
}

type fixedTable struct {
	*table
}

// NewFixedIntervalEvaluator returns an evaluator for the given constant
// checkpointing interval.
func NewFixedIntervalEvaluator(m *core.Model, delta, interval, step float64) *FixedIntervalEvaluator {
	if m == nil {
		panic("policy: nil model")
	}
	if delta < 0 || interval <= 0 || step <= 0 {
		panic(fmt.Sprintf("policy: invalid fixed-interval parameters delta=%v interval=%v step=%v",
			delta, interval, step))
	}
	return &FixedIntervalEvaluator{Model: m, Delta: delta, Interval: interval, Step: step}
}

// ExpectedMakespan returns the expected makespan of a job of length jobLen
// started at VM age startAge under the fixed-interval policy: run
// Interval's worth of work, checkpoint, repeat; on preemption, resume from
// the last checkpoint on a new VM.
func (e *FixedIntervalEvaluator) ExpectedMakespan(jobLen, startAge float64) float64 {
	if jobLen <= 0 {
		return 0
	}
	if startAge < 0 {
		startAge = 0
	}
	tb := e.solve(jobLen)
	n := int(math.Round(jobLen / e.Step))
	if n < 1 {
		n = 1
	}
	return tb.valueAt(n, tb.ageIndex(startAge))
}

// OverheadPercent mirrors CheckpointPlanner.OverheadPercent for the
// baseline.
func (e *FixedIntervalEvaluator) OverheadPercent(jobLen, startAge float64) float64 {
	if jobLen <= 0 {
		return 0
	}
	n := int(math.Round(jobLen / e.Step))
	if n < 1 {
		n = 1
	}
	quantized := float64(n) * e.Step
	return 100 * (e.ExpectedMakespan(jobLen, startAge) - quantized) / quantized
}

func (e *FixedIntervalEvaluator) solve(jobLen float64) *fixedTable {
	n := int(math.Round(jobLen / e.Step))
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cached == nil || e.cached.nWork < n {
		e.cached = e.solveN(n)
	}
	return e.cached
}

func (e *FixedIntervalEvaluator) solveN(n int) *fixedTable {
	tb := newTable(e.Model, e.Delta, e.Step, n)
	nAges, step := tb.nAges, tb.step
	ivSteps := int(math.Round(e.Interval / step))
	if ivSteps < 1 {
		ivSteps = 1
	}

	for j := 1; j <= n; j++ {
		i := ivSteps
		if i > j {
			i = j
		}
		w := i
		if i < j {
			w += tb.delta
		}
		// Age 0 fixed point: R_j = w + next + (Pfail/Psucc) E[lost].
		psucc, elost := tb.windowStats(0, w)
		if psucc <= 0 {
			panic("policy: fixed-interval segment cannot survive from age 0; interval too long for the deadline")
		}
		next := 0.0
		prevRow := (j - i) * nAges
		if i < j {
			na := w
			if na >= tb.nAges {
				na = tb.nAges - 1
			}
			next = tb.value[prevRow+na]
		}
		rj := float64(w)*step + next + ((1-psucc)/psucc)*elost
		row := j * nAges
		tb.value[row] = rj
		tb.choice[row] = int32(i)
		for a := 1; a < nAges; a++ {
			ps, el := tb.windowStats(a, w)
			nx := 0.0
			if i < j {
				na := a + w
				if na >= tb.nAges {
					na = tb.nAges - 1
				}
				nx = tb.value[prevRow+na]
			}
			tb.value[row+a] = ps*(float64(w)*step+nx) + (1-ps)*(el+rj)
			tb.choice[row+a] = int32(i)
		}
	}
	return &fixedTable{table: tb}
}
