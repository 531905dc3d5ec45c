package policy

import "math"

// This file holds the DP's innermost candidate-scan kernels.
//
// The arithmetic is the division-free restructuring of Equations 9-13.
// With sa = S(a), se = S(a+w), pfailAbs = sa-se, mom = M1(a+w)-M1(a) and
// t the window's start time, the textbook cell value
//
//	v = (se/sa)*(w*step + next) + ((sa-se)/sa)*(max(mom/pfailAbs - t, 0) + rj)
//
// is computed as
//
//	v = invSa * (se*(w*step + next) + max(mom - t*pfailAbs, 0) + pfailAbs*rj)
//
// with invSa = 1/sa hoisted once per cell: the two divisions per candidate
// of the direct form become one per cell, which roughly halves the scan's
// cost (the FP divider dominated the old profile). The naive reference
// solver in checkpoint_flat_test.go transcribes this exact sequence of
// operations — same temporaries, same order — so the production kernels
// must stay bit-for-bit in lockstep with it. Every multiplication is
// assigned to its own temporary before being added, so no compiler may
// contract a multiply-add into an FMA on any architecture (contraction
// would break both the reference equality and the bound admissibility
// argument in checkpoint_coarse.go, which relies on per-operation rounding
// monotonicity).

// scanCell evaluates candidate first intervals i = 1..hi for state (j, a)
// with a > 0, given the row's restart value rj, and returns the first
// minimizer. hi and tail are the saturation cap from pruneBound: tail
// additionally evaluates the write-free final candidate i=j after the
// capped loop. scanCell is the unguided scan, used when no coarse guide
// exists and by the guide's own solve.
func scanCell(tb *table, j, a, hi int, tail bool, rj float64) (float64, int) {
	sa := tb.surv[a]
	if sa <= 0 {
		// VM certainly dead at this age: every candidate fails immediately
		// with no time lost and the job restarts fresh.
		return rj, 1
	}
	invSa := 1 / sa
	m1a := tb.m1[a]
	t := float64(a) * tb.step
	value := tb.value
	nAges := tb.nAges
	step := tb.step
	delta := tb.delta
	best := math.Inf(1)
	bestI := 0
	for i := 1; i <= hi; i++ {
		w := i
		if i < j {
			w += delta
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
		mom := tb.m1[end] - m1a
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
			next = value[(j-i)*nAges+na]
		}
		ws := float64(w) * step
		x := ws + next
		t1 := se * x
		sum := t1 + lostNum + t2
		v := invSa * sum
		if v < best {
			best = v
			bestI = i
		}
	}
	if tail {
		// The write-free final candidate i=j (w = j, no checkpoint cost,
		// nothing left afterwards).
		w := j
		end := a + w
		if end > nAges {
			end = nAges
		}
		se := tb.surv[end]
		pfailAbs := sa - se
		if pfailAbs < 0 {
			pfailAbs = 0
		}
		mom := tb.m1[end] - m1a
		tp := t * pfailAbs
		lostNum := mom - tp
		if lostNum < 0 {
			lostNum = 0
		}
		t2 := pfailAbs * rj
		next := 0.0
		ws := float64(w) * step
		x := ws + next
		t1 := se * x
		sum := t1 + lostNum + t2
		v := invSa * sum
		if v < best {
			best = v
			bestI = j
		}
	}
	return best, bestI
}

// evalCell computes the exact candidate value for one (j, a, i) with the
// start-age quantities already hoisted. It is the loop body of scanCell as
// a standalone function — same temporaries, same order, same bits — used
// by the coarse-to-fine pass to seed its skip bound with a hint
// candidate's exact value (admissibility requires the bound to be a value
// the scan itself could produce).
func evalCell(tb *table, j, a, i int, sa, invSa, m1a, t, rj float64) float64 {
	nAges := tb.nAges
	w := i
	if i < j {
		w += tb.delta
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
	mom := tb.m1[end] - m1a
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
		next = tb.value[(j-i)*nAges+na]
	}
	ws := float64(w) * tb.step
	x := ws + next
	t1 := se * x
	sum := t1 + lostNum + t2
	return invSa * sum
}

// scanAge0 solves the self-referential age-0 state for work j:
//
//	R_j = min_i [ Psucc*(w + next) + Pfail*(E[lost] + R_j) ]
//	    = min_i [ w + next + lostNum/se ]   (per-interval algebraic solve)
//
// with lostNum = max(M1(w) - M1(0), 0) — the division-free form of
// (Pfail/Psucc)*E[lost] at t=0. hi and tail are the pruneBound cap, as in
// scanCell.
func scanAge0(tb *table, j, hi int, tail bool) (float64, int) {
	sa := tb.surv[0]
	if sa <= 0 {
		panic("policy: checkpoint DP has no feasible segment from age 0")
	}
	m1a := tb.m1[0]
	value := tb.value
	nAges := tb.nAges
	step := tb.step
	delta := tb.delta
	best := math.Inf(1)
	bestI := 0
	for i := 1; i <= hi; i++ {
		w := i
		if i < j {
			w += delta
		}
		end := w
		if end > nAges {
			end = nAges
		}
		se := tb.surv[end]
		if se <= 0 {
			continue
		}
		mom := tb.m1[end] - m1a
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
			next = value[(j-i)*nAges+na]
		}
		ws := float64(w) * step
		x := ws + next
		q := lostNum / se
		v := x + q
		if v < best {
			best = v
			bestI = i
		}
	}
	if tail {
		// The write-free final candidate i=j.
		w := j
		end := w
		if end > nAges {
			end = nAges
		}
		se := tb.surv[end]
		if se > 0 {
			mom := tb.m1[end] - m1a
			lostNum := mom
			if lostNum < 0 {
				lostNum = 0
			}
			next := 0.0
			ws := float64(w) * step
			x := ws + next
			q := lostNum / se
			v := x + q
			if v < best {
				best = v
				bestI = j
			}
		}
	}
	if math.IsInf(best, 1) {
		// Even a single step cannot survive from age 0: the model is
		// degenerate for this discretization.
		panic("policy: checkpoint DP has no feasible segment from age 0")
	}
	return best, bestI
}

// solveAge0 solves row j's age-0 cell under the saturation cap, stores it,
// and returns the restart value R_j the rest of the row consumes.
func (tb *table) solveAge0(j int) float64 {
	hi, tail := tb.pruneBound(0, j)
	rj, c := scanAge0(tb, j, hi, tail)
	row := j * tb.nAges
	tb.value[row] = rj
	tb.choice[row] = int32(c)
	return rj
}

// solveAges fills row j's cells for ages [aLo, aHi) under the saturation
// cap, with the guided kernel when the solve has a coarse guide and the
// plain scan otherwise. The previous age's winner seeds the next guided
// cell's skip bound.
func (tb *table) solveAges(g *dpGuide, j int, rj float64, aLo, aHi int) {
	row := j * tb.nAges
	prevI := 0
	for a := aLo; a < aHi; a++ {
		hi, tail := tb.pruneBound(a, j)
		var v float64
		var c int
		if g != nil {
			v, c = scanCellGuided(tb, g, j, a, hi, tail, prevI, rj)
			prevI = c
		} else {
			v, c = scanCell(tb, j, a, hi, tail, rj)
		}
		tb.value[row+a] = v
		tb.choice[row+a] = int32(c)
	}
}
