package policy

import (
	"math"
	"testing"
)

// refTable is a direct nested-slice transcription of the checkpoint DP as
// specified in Section 4.3 / DESIGN.md note 3, kept deliberately naive: it
// is the reference the flattened, hoisted production solver must reproduce
// bit-for-bit.
type refTable struct {
	step   float64
	delta  int
	nAges  int
	value  [][]float64
	choice [][]int32
	surv   []float64
	m1     []float64
}

func refSolve(p *CheckpointPlanner, n int) *refTable {
	m := p.Model
	l := m.Deadline()
	step := p.Step
	nAges := int(math.Ceil(l/step)) + 1
	deltaSteps := int(math.Ceil(p.Delta/step - 1e-12))
	if p.Delta == 0 {
		deltaSteps = 0
	}
	tb := &refTable{
		step: step, delta: deltaSteps, nAges: nAges,
		surv: make([]float64, nAges+1),
		m1:   make([]float64, nAges+1),
	}
	bt := m.Bathtub()
	norm := bt.Raw(l)
	for a := 0; a <= nAges; a++ {
		t := math.Min(float64(a)*step, l)
		tb.surv[a] = 1 - math.Min(bt.CDF(t)/norm, 1)
		tb.m1[a] = bt.PartialMoment(t) / norm
	}
	tb.value = make([][]float64, n+1)
	tb.choice = make([][]int32, n+1)
	for j := 0; j <= n; j++ {
		tb.value[j] = make([]float64, nAges)
		tb.choice[j] = make([]int32, nAges)
	}
	// The cell recurrence below is the division-free restructuring the
	// production kernels use (see checkpoint_scan.go): the reference is
	// naive in LAYOUT (nested slices, no hoisting across cells, no
	// parallelism, no saturation cap, no block skips), but transcribes the
	// exact same sequence of float operations — same temporaries, same
	// order, each multiplication isolated so no FMA contraction is
	// possible — which is what lets the equality test demand bit-for-bit
	// agreement.
	for j := 1; j <= n; j++ {
		// Age 0 per-interval fixed point: R_j = min_i [w + next + lostNum/se].
		best := math.Inf(1)
		var bestI int
		for i := 1; i <= j; i++ {
			w := i
			if i < j {
				w += deltaSteps
			}
			end := w
			if end > nAges {
				end = nAges
			}
			se := tb.surv[end]
			if se <= 0 {
				continue
			}
			mom := tb.m1[end] - tb.m1[0]
			lostNum := mom
			if lostNum < 0 {
				lostNum = 0
			}
			next := 0.0
			if i < j {
				na := end
				if na >= nAges {
					na = nAges - 1
				}
				next = tb.value[j-i][na]
			}
			ws := float64(w) * step
			x := ws + next
			q := lostNum / se
			v := x + q
			if v < best {
				best, bestI = v, i
			}
		}
		rj := best
		tb.value[j][0] = rj
		tb.choice[j][0] = int32(bestI)
		for a := 1; a < nAges; a++ {
			sa := tb.surv[a]
			if sa <= 0 {
				tb.value[j][a] = rj
				tb.choice[j][a] = 1
				continue
			}
			invSa := 1 / sa
			t := float64(a) * step
			best := math.Inf(1)
			bestI := 0
			for i := 1; i <= j; i++ {
				w := i
				if i < j {
					w += deltaSteps
				}
				end := a + w
				if end > nAges {
					end = nAges
				}
				se := tb.surv[end]
				pfailAbs := sa - se
				if pfailAbs < 0 {
					pfailAbs = 0
				}
				mom := tb.m1[end] - tb.m1[a]
				tp := t * pfailAbs
				lostNum := mom - tp
				if lostNum < 0 {
					lostNum = 0
				}
				t2 := pfailAbs * rj
				next := 0.0
				if i < j {
					na := end
					if na >= nAges {
						na = nAges - 1
					}
					next = tb.value[j-i][na]
				}
				ws := float64(w) * step
				x := ws + next
				t1 := se * x
				sum := t1 + lostNum + t2
				v := invSa * sum
				if v < best {
					best, bestI = v, i
				}
			}
			tb.value[j][a] = best
			tb.choice[j][a] = int32(bestI)
		}
	}
	return tb
}

// TestFlatDPMatchesReferenceExactly pins the flattened, loop-hoisted solver
// to the naive reference: every value must be identical (==, not within a
// tolerance) and every choice equal, so the flattening is a pure layout
// change with no numeric drift.
func TestFlatDPMatchesReferenceExactly(t *testing.T) {
	p := NewCheckpointPlanner(paperModel(), testDelta, testStep)
	const jobLen = 2.5
	n := int(math.Round(jobLen / testStep))
	requireTablesEqual(t, "paper", refSolve(p, n), p.solve(jobLen), n)
}

// TestFlatDPFigure8Quantities verifies the quantities the Figure 8 tables
// are built from — the failure-free schedule and its expected makespan —
// by replaying the reference table's choice walk against Plan.
func TestFlatDPFigure8Quantities(t *testing.T) {
	p := NewCheckpointPlanner(paperModel(), testDelta, testStep)
	const jobLen = 4.0
	n := int(math.Round(jobLen / testStep))
	ref := refSolve(p, n)
	for _, startAge := range []float64{0, 4, 10, 16} {
		sched := p.Plan(jobLen, startAge)
		a0 := int(math.Round(startAge / testStep))
		if a0 >= ref.nAges {
			a0 = ref.nAges - 1
		}
		if got, want := sched.ExpectedMakespan, ref.value[n][a0]; got != want {
			t.Fatalf("s=%v: E[M*] = %v, reference %v", startAge, got, want)
		}
		// Walk the reference choice table along the failure-free path.
		var want []float64
		j, a := n, a0
		for j > 0 {
			i := int(ref.choice[j][a])
			if i <= 0 {
				t.Fatalf("reference missing choice at j=%d a=%d", j, a)
			}
			want = append(want, float64(i)*ref.step)
			if i >= j {
				break
			}
			a += i + ref.delta
			if a >= ref.nAges {
				a = ref.nAges - 1
			}
			j -= i
		}
		if len(sched.Intervals) != len(want) {
			t.Fatalf("s=%v: schedule %v, reference %v", startAge, sched.Intervals, want)
		}
		for k := range want {
			if sched.Intervals[k] != want[k] {
				t.Fatalf("s=%v: interval %d = %v, reference %v", startAge, k, sched.Intervals[k], want[k])
			}
		}
	}
}
