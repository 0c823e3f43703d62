package route

// Region partitioning for the parallel rip-up/reroute negotiation.
//
// Each negotiation round collects the segments whose current path
// crosses an over-capacity edge and recursively bisects them, by the
// gcell territory a reroute may touch, into spatially disjoint
// regions. Two facts make the scheme sound:
//
//   - A segment's territory is a pure function of its terminals: the
//     terminal bounding box expanded by the maze router's detour halo.
//     Every path the segment has ever carried (pattern route or maze
//     route) and every edge a reroute may rip up, probe, or occupy
//     lies inside it.
//
//   - Cell-disjoint rectangles are edge-disjoint: a grid edge belongs
//     to a rectangle only when both endpoint gcells do, so two regions
//     that share no gcell share no edge.
//
// Segments whose territory straddles a cut line form that cut node's
// boundary bucket. Buckets are scheduled by tree depth, deepest level
// first, after every leaf region has finished: a bucket's territories
// all live inside its node's rectangle, and nodes at the same depth
// have pairwise disjoint rectangles, so the buckets of one level are
// edge-disjoint and run concurrently (each bucket itself is routed
// serially — its members may overlap one another). A bucket only ever
// runs after everything spatially inside its rectangle (descendant
// regions and deeper buckets) has settled, and before any ancestor
// bucket that contains it.
//
// The partition depends only on the grid geometry and the failing set
// — never on the worker count — which is what keeps the negotiation
// byte-identical for any Workers value.

// gridRect is an inclusive gcell rectangle [X0,X1]×[Y0,Y1].
type gridRect struct {
	X0, Y0, X1, Y1 int
}

// contains reports whether r fully contains t.
func (r gridRect) contains(t gridRect) bool {
	return t.X0 >= r.X0 && t.X1 <= r.X1 && t.Y0 >= r.Y0 && t.Y1 <= r.Y1
}

// territory returns the gcell rectangle a segment with terminals a, b
// can touch: the terminal bounding box expanded by the maze router's
// halo, clamped to the grid.
func (g *Grid) territory(a, b [2]int) gridRect {
	x0, x1 := minmax(a[0], b[0])
	y0, y1 := minmax(a[1], b[1])
	return gridRect{
		X0: clampInt(x0-mazeHalo, 0, g.NX-1),
		X1: clampInt(x1+mazeHalo, 0, g.NX-1),
		Y0: clampInt(y0-mazeHalo, 0, g.NY-1),
		Y1: clampInt(y1+mazeHalo, 0, g.NY-1),
	}
}

// regionPlan is one round's partition: per-region segment index lists
// (each ascending) with their rectangles (pairwise cell-disjoint), and
// the per-level boundary buckets of segments straddling cut lines.
// Every list is a window of the failing set's array, which the
// partition permutes in place; a plan is reused from round to round.
type regionPlan struct {
	Regions [][]int
	Rects   []gridRect
	// BoundaryLevels[d] holds the straddler buckets of the cut nodes
	// at bisection depth d, with their node rectangles in
	// BoundaryRects[d]. Within one level the rectangles are pairwise
	// disjoint; the scheduler runs levels deepest-first.
	BoundaryLevels [][][]int
	BoundaryRects  [][]gridRect
	// items, terr and the cut scan's arrays are split's scratch.
	items          []int
	terr           []gridRect
	strad, leftEnd []int
}

// boundaryCount returns the total number of straddler segments.
func (p *regionPlan) boundaryCount() int {
	n := 0
	for _, level := range p.BoundaryLevels {
		for _, bucket := range level {
			n += len(bucket)
		}
	}
	return n
}

// Partitioning thresholds. All are properties of the workload, not of
// the machine, so the plan is identical everywhere.
const (
	// maxRegionSegments is the largest failing-segment count a leaf
	// region keeps without attempting another cut.
	maxRegionSegments = 48
	// minRegionSpan is the smallest rectangle dimension a cut may
	// leave on either side: below roughly twice the maze halo every
	// territory straddles the cut and the split only grows the
	// boundary buckets. A rectangle under 2×minRegionSpan on both
	// axes admits no cut and becomes a leaf.
	minRegionSpan = 2 * (2*mazeHalo + 1)
	// maxRegionDepth bounds the bisection recursion (2^12 leaves is
	// far beyond any useful parallelism).
	maxRegionDepth = 12
)

// partition replaces the plan with the bisection of the failing
// segments (ascending indices) within bounds. terr[i] must be the
// territory of segment fail[i]'s terminals. fail and terr are permuted
// in place, and the plan's lists are windows of fail.
func (p *regionPlan) partition(fail []int, terr []gridRect, bounds gridRect) {
	p.Regions, p.Rects = p.Regions[:0], p.Rects[:0]
	p.BoundaryLevels, p.BoundaryRects = p.BoundaryLevels[:0], p.BoundaryRects[:0]
	if cap(p.items) < len(fail) {
		p.items, p.terr = make([]int, len(fail)), make([]gridRect, len(fail))
	}
	p.split(fail, terr, bounds, 0)
}

// split recursively bisects one rectangle. items and terr are parallel
// slices, ascending in items; split reorders them so that the left
// half's come first, then the right half's, then the straddlers, each
// group still ascending, and recurses on the halves' windows.
func (p *regionPlan) split(items []int, terr []gridRect, rect gridRect, depth int) {
	if len(items) == 0 {
		return
	}
	w, h := rect.X1-rect.X0+1, rect.Y1-rect.Y0+1
	if len(items) <= maxRegionSegments || depth >= maxRegionDepth ||
		(w < 2*minRegionSpan && h < 2*minRegionSpan) {
		p.Regions = append(p.Regions, items)
		p.Rects = append(p.Rects, rect)
		return
	}
	// Pick the cut minimizing stranded territories plus imbalance
	// (regions.go bestCutOf). Congested designs cluster failing
	// segments into blobs; a cut through a blob strands the whole
	// blob, while the scan slides the line into the gap beside it. The
	// scan depends only on the territories and the rectangle, so every
	// worker count sees the same plan.
	cut, horiz, straddle := p.bestCutOf(items, terr, rect)
	// A congestion blob — overlapping territories around one hot spot —
	// straddles every line through it. When even the best cut strands
	// most of the items, keep the cluster whole as one region (it runs
	// on a single worker, concurrently with the other regions) rather
	// than feeding it to a semi-serial boundary bucket.
	if 2*straddle > len(items) {
		p.Regions = append(p.Regions, items)
		p.Rects = append(p.Rects, rect)
		return
	}
	var left, right gridRect
	if horiz {
		left = gridRect{X0: rect.X0, Y0: rect.Y0, X1: rect.X1, Y1: cut - 1}
		right = gridRect{X0: rect.X0, Y0: cut, X1: rect.X1, Y1: rect.Y1}
	} else {
		left = gridRect{X0: rect.X0, Y0: rect.Y0, X1: cut - 1, Y1: rect.Y1}
		right = gridRect{X0: cut, Y0: rect.Y0, X1: rect.X1, Y1: rect.Y1}
	}
	// A stable three-way partition: the left half's items move to the
	// front in place, the right half's go through the scratch from its
	// start and the straddlers from its end, and both come back after
	// the left half's.
	n := len(items)
	tmpI, tmpT := p.items[:n], p.terr[:n]
	li, ri, bi := 0, 0, n
	for k, it := range items {
		t := terr[k]
		switch {
		case left.contains(t):
			items[li], terr[li] = it, t
			li++
		case right.contains(t):
			tmpI[ri], tmpT[ri] = it, t
			ri++
		default:
			bi--
			tmpI[bi] = it
		}
	}
	copy(items[li:], tmpI[:ri])
	copy(terr[li:], tmpT[:ri])
	bucket := items[li+ri:]
	for k := range bucket {
		bucket[k] = tmpI[n-1-k]
	}
	if len(bucket) > 0 {
		for len(p.BoundaryLevels) <= depth {
			p.BoundaryLevels = append(p.BoundaryLevels, nil)
			p.BoundaryRects = append(p.BoundaryRects, nil)
		}
		p.BoundaryLevels[depth] = append(p.BoundaryLevels[depth], bucket)
		p.BoundaryRects[depth] = append(p.BoundaryRects[depth], rect)
	}
	p.split(items[:li], terr[:li], left, depth+1)
	p.split(items[li:li+ri], terr[li:li+ri], right, depth+1)
}

// bestCutOf scans every admissible cut position on both axes and
// returns the line minimizing 4×straddlers + |left−right| — stranding
// few territories matters most, but a pure minimum-straddle objective
// degenerates into shaving empty slivers off the rectangle's edge, so
// imbalance is penalized too. Returns the cut coordinate, the
// orientation (horizontal = a y-cut), and the straddler count.
// Tie-breaks are positional (x-cuts before y-cuts, lower coordinates
// first) so the choice is deterministic. A cut is admissible when both
// halves keep at least minRegionSpan cells; if neither axis admits one
// the fallback is the vertical midline with everything stranded.
func (p *regionPlan) bestCutOf(items []int, terr []gridRect, rect gridRect) (cut int, horizontal bool, straddle int) {
	bestCut, bestHoriz := -1, false
	bestStraddle, bestCost := len(items), len(items)*8
	// scan sweeps cuts c in [lo+minRegionSpan, hi+1-minRegionSpan]
	// along one axis using difference arrays: straddle(c) =
	// #{t : t.lo < c ≤ t.hi} and left(c) = #{t : t.hi < c} accumulate
	// incrementally.
	scan := func(lo, hi int, horiz bool) {
		if hi-lo+1 < 2*minRegionSpan {
			return
		}
		span := hi - lo + 1
		if cap(p.strad) < span+2 {
			p.strad, p.leftEnd = make([]int, span+2), make([]int, span+2)
		}
		strad, leftEnd := p.strad[:span+2], p.leftEnd[:span+2]
		clear(strad)
		clear(leftEnd)
		for k := range items {
			t := terr[k]
			a, b := t.X0, t.X1
			if horiz {
				a, b = t.Y0, t.Y1
			}
			strad[a+1-lo]++
			strad[b+1-lo]--
			leftEnd[b-lo]++
		}
		s, l := 0, 0
		for c := lo + 1; c <= hi; c++ {
			s += strad[c-lo]
			l += leftEnd[c-1-lo]
			if c < lo+minRegionSpan || c > hi+1-minRegionSpan {
				continue
			}
			cost := 4*s + abs(2*l+s-len(items))
			if cost < bestCost {
				bestCut, bestHoriz = c, horiz
				bestStraddle, bestCost = s, cost
			}
		}
	}
	scan(rect.X0, rect.X1, false)
	scan(rect.Y0, rect.Y1, true)
	if bestCut < 0 {
		return rect.X0 + (rect.X1-rect.X0+1)/2, false, len(items)
	}
	return bestCut, bestHoriz, bestStraddle
}
