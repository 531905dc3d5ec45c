package policy

import "math"

// Coarse-to-fine bound tightening for the checkpoint DP, part of every
// solve on a grid fine enough to refine. A guide solve at coarseFactor×
// the step resolution costs ~2% of the fine solve and its choice table
// lands near the fine optimum; the fine scan then skips whole blocks of
// candidates that provably cannot win. The pass is exact — cell for cell
// identical to the exhaustive recurrence (the reference solver in
// checkpoint_flat_test.go) — because a block of candidates is skipped
// only when an *admissible float lower bound* for every candidate in it
// exceeds a bound the scan itself computed:
//
//   - The skip bound starts as the exact value of the guide's hinted
//     candidate (evaluated by evalCell with the scan's own arithmetic, so
//     it IS one of the scan's candidate values and hence >= the cell's
//     true minimum) and only tightens to smaller exactly-evaluated values.
//   - The block lower bound replaces each term of the candidate value
//     v(i) = invSa*(se*(ws+next) + lostNum + t2) with a term that
//     lower-bounds it for every i in the block:
//     window minima/maxima of surv and m1 over the block's segment-end
//     range stand in for se and m1[end], and a per-block minimum of
//     ws_i + rowMin[j-i] (the candidate's exact work term plus its
//     continuation row's minimum over all ages) stands in for ws + next.
//     Every ingredient is either an exact float comparison over stored
//     values (window extrema, row minima) or an individually rounded
//     operation with non-negative multiplicands, and round-to-nearest is
//     monotone per operation (no FMA contraction is possible — every
//     multiply sits in its own temporary, see checkpoint_scan.go) — so
//     the composed bound is <= v(i) in float arithmetic, not just in
//     exact arithmetic.
//   - A block is skipped only when blockLB > bound. The bound always
//     upper-bounds the final minimum vmin (it is a running minimum of
//     exactly-evaluated candidate values), so every skipped candidate
//     satisfies v(i) >= blockLB > bound >= vmin: none is a minimizer,
//     and none can tie vmin. Surviving candidates are evaluated in
//     increasing i with the unchanged arithmetic, so the first minimizer
//     — the exhaustive tie-break — is always evaluated and kept.
//
// The same machinery admits hints from any source; a warm-start neighbor
// planner's same-grid choice table (cross-model warm starts, see
// SharedPlanner) simply contributes a second hint per cell.

// coarseFactor is the guide solve's resolution multiple. 4 keeps the
// guide under 2% of the fine solve while landing hints within a few steps
// of the fine optimum on the studied shapes.
const coarseFactor = 4

// skipBlock is the number of candidates covered by one block bound test.
// Larger blocks amortize the ~10-flop bound better but loosen it (the
// window extrema span a wider range of segment ends); 16 is the sweet
// spot on the studied shapes.
const skipBlock = 16

// dpGuide carries the per-solve state of the coarse-to-fine pass.
type dpGuide struct {
	factor int
	guide  *table // coarse solve at factor× resolution
	warm   *table // optional same-grid neighbor table (nil without one)
	// Window extrema over segment-end indices e, computed once per guided
	// solve from the grid arrays with exact float comparisons:
	//   survWinMin[e] = min surv[e .. min(e+skipBlock-1, last)]
	//   survWinMax[e] = max surv[e .. min(e+skipBlock-1, last)]
	//   m1WinMin[e]   = min m1[e .. min(e+skipBlock-1, last)]
	// A block whose smallest end is e0 has every (clamped) end inside
	// that window, so these bound se and m1[end] for the whole block.
	survWinMin []float64
	survWinMax []float64
	m1WinMin   []float64
	// rowMin[r] = min over ages of completed row r (exact comparisons),
	// maintained as rows finish; feeds the per-block continuation bound.
	rowMin []float64
	// wnLo[b] = min over candidates i in block b of ws_i + rowMin[j-i],
	// for the row j currently being solved — the block's admissible
	// stand-in for ws + next. Precomputed serially by prepareRow (the
	// blocks partition 1..j-1, so filling it is O(j) per row) and shared
	// by every age of the row.
	wnLo []float64
	// hintRow / warmRow hold the current row's per-age hint candidates,
	// precomputed serially before the row is (possibly in parallel)
	// solved.
	hintRow []int32
	warmRow []int32
}

// newGuide builds the coarse guide for a solve of rows lo..hi of tb, or
// returns nil when the grid is too coarse to refine further. For an
// incremental growth (lo > 1) the already-copied prefix rows feed the
// row-minimum bounds directly. The guide's own solve is unguided (the
// plain capped scan), so guides never recurse. warm, when non-nil, is a
// neighbor planner whose same-grid table contributes a second hint.
func (p *CheckpointPlanner) newGuide(tb *table, warm *CheckpointPlanner, lo, hi, workers int) *dpGuide {
	stepC := tb.step * float64(coarseFactor)
	if stepC > p.Model.Deadline() || hi < coarseFactor {
		return nil
	}
	nC := (hi + coarseFactor - 1) / coarseFactor
	guide := newTable(p.Model, p.Delta, stepC, nC)
	guide.solveRows(nil, 1, nC, workers)
	g := &dpGuide{
		factor:     coarseFactor,
		guide:      guide,
		survWinMin: make([]float64, len(tb.surv)),
		survWinMax: make([]float64, len(tb.surv)),
		m1WinMin:   make([]float64, len(tb.m1)),
		rowMin:     make([]float64, hi+1),
		wnLo:       make([]float64, hi/skipBlock+1),
		hintRow:    make([]int32, tb.nAges),
	}
	last := len(tb.surv) - 1
	for e := last; e >= 0; e-- {
		sMin, sMax, mMin := tb.surv[e], tb.surv[e], tb.m1[e]
		stop := e + skipBlock
		if stop > last+1 {
			stop = last + 1
		}
		for k := e + 1; k < stop; k++ {
			if tb.surv[k] < sMin {
				sMin = tb.surv[k]
			}
			if tb.surv[k] > sMax {
				sMax = tb.surv[k]
			}
			if tb.m1[k] < mMin {
				mMin = tb.m1[k]
			}
		}
		g.survWinMin[e] = sMin
		g.survWinMax[e] = sMax
		g.m1WinMin[e] = mMin
	}
	if warm != nil {
		if wt := warm.cachedTable(); wt != nil && wt.step == tb.step && wt.delta == tb.delta {
			g.warm = wt
			g.warmRow = make([]int32, tb.nAges)
		}
	}
	for r := 1; r < lo; r++ {
		g.rowMin[r] = tb.minRow(r)
	}
	return g
}

// prepareRow fills the per-age hint candidates and the per-block
// continuation bounds for row j. Hints are pure suggestions — any
// in-range candidate keeps the pass exact — so the mappings can be as
// crude as integer division: fine work j is covered by coarse row
// ceil(j/K), fine age a sits in coarse cell a/K, and a coarse choice iC
// suggests the fine candidate iC*K.
func (g *dpGuide) prepareRow(tb *table, j int) {
	step := tb.step
	delta := tb.delta
	for b, i0 := 0, 1; i0 <= j-1; b, i0 = b+1, i0+skipBlock {
		iEnd := i0 + skipBlock - 1
		if iEnd > j-1 {
			iEnd = j - 1
		}
		m := math.Inf(1)
		for i := i0; i <= iEnd; i++ {
			// The exact work term the scan computes for candidate i,
			// plus its continuation row's minimum.
			ws := float64(i+delta) * step
			if s := ws + g.rowMin[j-i]; s < m {
				m = s
			}
		}
		g.wnLo[b] = m
	}
	k := g.factor
	gt := g.guide
	jC := (j + k - 1) / k
	if jC > gt.nWork {
		jC = gt.nWork
	}
	base := jC * gt.nAges
	for a := 0; a < tb.nAges; a++ {
		aC := a / k
		if aC >= gt.nAges {
			aC = gt.nAges - 1
		}
		h := int(gt.choice[base+aC]) * k
		if h < 1 {
			h = 1
		}
		if h > j {
			h = j
		}
		g.hintRow[a] = int32(h)
	}
	if g.warmRow != nil {
		wt := g.warm
		wj := j
		if wj > wt.nWork {
			wj = wt.nWork
		}
		wbase := wj * wt.nAges
		for a := 0; a < tb.nAges; a++ {
			wa := a
			if wa >= wt.nAges {
				wa = wt.nAges - 1
			}
			h := int(wt.choice[wbase+wa])
			if h < 1 {
				h = 1
			}
			if h > j {
				h = j
			}
			g.warmRow[a] = int32(h)
		}
	}
}

// finishRow records row j's minimum for the continuation bounds of later
// rows. Called after the row barrier, never concurrently with cell work.
func (g *dpGuide) finishRow(tb *table, j int) {
	g.rowMin[j] = tb.minRow(j)
}

// minRow returns the minimum value in row j (including the age-0 cell).
func (tb *table) minRow(j int) float64 {
	row := j * tb.nAges
	m := tb.value[row]
	for _, v := range tb.value[row+1 : row+tb.nAges] {
		if v < m {
			m = v
		}
	}
	return m
}

// scanCellGuided is scanCell with the coarse-to-fine block-skip test.
// Candidates i in [1, min(hi, j-1)] are covered in blocks of skipBlock; a
// block whose admissible lower bound exceeds the running bound is skipped
// in one ~10-flop test, and surviving blocks run the exact loop body.
// The final candidate i=j (reached when hi == j, or via the capped tail)
// is always evaluated — it is a single candidate, not worth a bound.
// hi/tail are the saturation cap, exactly as in scanCell.
func scanCellGuided(tb *table, g *dpGuide, j, a, hi int, tail bool, prevI int, rj float64) (float64, int) {
	sa := tb.surv[a]
	if sa <= 0 {
		return rj, 1
	}
	invSa := 1 / sa
	m1a := tb.m1[a]
	t := float64(a) * tb.step
	value := tb.value
	nAges := tb.nAges
	step := tb.step
	delta := tb.delta
	// Seed the skip bound with the hint candidates' exact values: the
	// coarse guide's suggestion, the previous age's winner (adjacent-age
	// optima are nearly always within a step of each other, so this is
	// usually the tightest of the three), and the warm neighbor's choice.
	// A hint beyond the saturation cap is clamped onto it: the clamped
	// candidate is still in range, so the bound stays a value the scan
	// can produce.
	bound := math.Inf(1)
	if h := int(g.hintRow[a]); h >= 1 {
		if h > hi {
			h = hi
		}
		bound = evalCell(tb, j, a, h, sa, invSa, m1a, t, rj)
	}
	if prevI >= 1 {
		if prevI > hi {
			prevI = hi
		}
		if v := evalCell(tb, j, a, prevI, sa, invSa, m1a, t, rj); v < bound {
			bound = v
		}
	}
	if g.warmRow != nil {
		if h := int(g.warmRow[a]); h >= 1 {
			if h > hi {
				h = hi
			}
			if v := evalCell(tb, j, a, h, sa, invSa, m1a, t, rj); v < bound {
				bound = v
			}
		}
	}
	best := math.Inf(1)
	bestI := 0
	jm1 := hi
	if jm1 > j-1 {
		jm1 = j - 1
	}
	for b, i0 := 0, 1; i0 <= jm1; b, i0 = b+1, i0+skipBlock {
		iEnd := i0 + skipBlock - 1
		if iEnd > jm1 {
			iEnd = jm1
		}
		// Block lower bound. wnLo[b] may cover candidates past the
		// saturation cap (it is built for the full block up to j-1): a
		// lower bound over a superset stays admissible for the scanned
		// subset.
		e0 := a + i0 + delta
		if e0 > nAges {
			e0 = nAges
		}
		seLo := g.survWinMin[e0]
		momLo := g.m1WinMin[e0] - m1a
		pfailHi := sa - seLo
		if pfailHi < 0 {
			pfailHi = 0
		}
		tpHi := t * pfailHi
		lostLo := momLo - tpHi
		if lostLo < 0 {
			lostLo = 0
		}
		pfailLo := sa - g.survWinMax[e0]
		if pfailLo < 0 {
			pfailLo = 0
		}
		t2Lo := pfailLo * rj
		xLo := g.wnLo[b]
		t1Lo := seLo * xLo
		sumLo := t1Lo + lostLo + t2Lo
		blockLB := invSa * sumLo
		if blockLB > bound {
			continue
		}
		// The block survives: run the exact candidate loop over it.
		for i := i0; i <= iEnd; i++ {
			w := i + delta
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
			na := end
			if na >= nAges {
				na = nAges - 1
			}
			next := value[(j-i)*nAges+na]
			ws := float64(w) * step
			x := ws + next
			t1 := se * x
			sum := t1 + lostNum + t2
			v := invSa * sum
			if v < best {
				best = v
				bestI = i
			}
			if v < bound {
				bound = v
			}
		}
	}
	if hi >= j || tail {
		// The final candidate i=j: no checkpoint cost, no continuation.
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
