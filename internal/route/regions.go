package route

import (
	"context"
	"sync"

	"casyn/internal/par"
)

// Region partitioning for the parallel rip-up/reroute negotiation.
//
// Each negotiation round collects the segments whose current path
// crosses an over-capacity edge and recursively bisects them, by the
// gcell territory a reroute may touch, into a tree of rectangles. Two
// facts make the scheme sound:
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
// A leaf of the tree is a region; the segments whose territory
// straddles a cut line form that cut node's boundary bucket. The round
// runs as a dependency schedule (regionPlan.run): leaves start ready,
// and a cut node's bucket becomes ready when the last of its child
// subtrees finishes. Each list is routed serially in ascending order.
// The schedule routes every edge's reroutes in the order of the serial
// level order — every leaf, then the buckets deepest level first —
// because
//
//   - a bucket's territories lie inside its node's rectangle;
//   - everything the level order runs before the bucket inside that
//     rectangle (leaves and deeper buckets) is in its subtree, and the
//     bucket waits for the subtree;
//   - nodes that are not ancestor and descendant have edge-disjoint
//     rectangles, so whatever the schedule runs concurrently touches
//     disjoint edges.
//
// The tree depends only on the grid geometry and the failing set —
// never on the worker count — which is what keeps the negotiation
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

// regionNode is one node of a round's bisection tree: a leaf region,
// whose list is its segments, or a cut node, whose list is its
// straddler bucket (possibly empty). Every territory of the list and
// of the node's subtree lies inside rect.
type regionNode struct {
	parent   int32 // -1 at the root
	children int32 // 0 for a leaf
	rect     gridRect
	list     []int
}

// regionPlan is one round's partition: the bisection tree in pre-order
// (a node precedes its subtree, the left subtree the right), so the
// leaves appear in plan order. Every list is ascending and a window of
// the failing set's array, which the partition permutes in place; a
// plan and its schedule's arrays are reused from round to round.
type regionPlan struct {
	nodes []regionNode
	// items, terr and the cut scan's arrays are split's scratch;
	// pending and ready are run's.
	items          []int
	terr           []gridRect
	strad, leftEnd []int
	pending        []int32
	ready          []int32
}

// counts returns the number of leaf regions and of straddler segments
// in all boundary buckets.
func (p *regionPlan) counts() (regions, boundary int) {
	for i := range p.nodes {
		if p.nodes[i].children == 0 {
			regions++
		} else {
			boundary += len(p.nodes[i].list)
		}
	}
	return regions, boundary
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
	p.nodes = p.nodes[:0]
	if cap(p.items) < len(fail) {
		p.items, p.terr = make([]int, len(fail)), make([]gridRect, len(fail))
	}
	p.split(fail, terr, bounds, -1, 0)
}

// add appends a node under parent and returns its index.
func (p *regionPlan) add(parent int32, rect gridRect, list []int) int32 {
	if parent >= 0 {
		p.nodes[parent].children++
	}
	p.nodes = append(p.nodes, regionNode{parent: parent, rect: rect, list: list})
	return int32(len(p.nodes) - 1)
}

// split recursively bisects one rectangle, recording its node under
// parent. items and terr are parallel slices, ascending in items;
// split reorders them so that the left half's come first, then the
// right half's, then the straddlers, each group still ascending, and
// recurses on the halves' windows.
func (p *regionPlan) split(items []int, terr []gridRect, rect gridRect, parent int32, depth int) {
	if len(items) == 0 {
		return
	}
	w, h := rect.X1-rect.X0+1, rect.Y1-rect.Y0+1
	if len(items) <= maxRegionSegments || depth >= maxRegionDepth ||
		(w < 2*minRegionSpan && h < 2*minRegionSpan) {
		p.add(parent, rect, items)
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
		p.add(parent, rect, items)
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
	node := p.add(parent, rect, bucket)
	p.split(items[:li], terr[:li], left, node, depth+1)
	p.split(items[li:li+ri], terr[li:li+ri], right, node, depth+1)
}

// run routes the plan's lists on up to workers goroutines (normalized
// through par.Workers) as a dependency schedule: every leaf is ready
// from the start, in plan order, and a cut node's bucket becomes ready
// when its last child subtree has finished; a ready bucket goes before
// the next leaf. route is called once per node and must route the list
// serially. With one worker the round runs in post-order on the
// calling goroutine. Each node is claimed after a ctx check; the first
// error (route's or ctx's) stops further claims, run waits for the
// lists in flight, and returns it.
func (p *regionPlan) run(ctx context.Context, workers int, route func(list []int) error) error {
	n := len(p.nodes)
	if n == 0 {
		return nil
	}
	if cap(p.pending) < n {
		p.pending = make([]int32, n)
	}
	s := &schedule{plan: p, pending: p.pending[:n], ready: p.ready[:0], left: n}
	s.wake = sync.NewCond(&s.mu)
	for i := range p.nodes {
		s.pending[i] = p.nodes[i].children
	}
	workers = min(par.Workers(workers), n)
	if workers <= 1 {
		s.work(ctx, route)
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.work(ctx, route)
			}()
		}
		wg.Wait()
	}
	p.ready = s.ready
	return s.err
}

// schedule is one run of a plan: per node the children still
// unfinished, the ready buckets (a stack), the next leaf to hand out,
// and the nodes not yet finished.
type schedule struct {
	plan     *regionPlan
	mu       sync.Mutex
	wake     *sync.Cond
	pending  []int32
	ready    []int32
	nextLeaf int
	left     int
	err      error
}

// claim returns the next node to route, or -1 when none is ready.
// Called with mu held.
func (s *schedule) claim() int {
	if k := len(s.ready); k > 0 {
		ni := s.ready[k-1]
		s.ready = s.ready[:k-1]
		return int(ni)
	}
	nodes := s.plan.nodes
	for s.nextLeaf < len(nodes) {
		ni := s.nextLeaf
		s.nextLeaf++
		if nodes[ni].children == 0 {
			return ni
		}
	}
	return -1
}

// work is one worker: it claims ready nodes and routes them until every
// node has finished or an error stopped the schedule. A worker waits
// only when nothing is ready and no leaf is left; a finished node then
// makes at most its parent ready, and the worker that finished it
// claims it before releasing the lock, so only the end of the schedule
// (or an error) has to wake the waiting workers.
func (s *schedule) work(ctx context.Context, route func(list []int) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		ni := -1
		for s.err == nil && s.left > 0 {
			if ni = s.claim(); ni >= 0 {
				break
			}
			s.wake.Wait()
		}
		if ni < 0 {
			return
		}
		s.mu.Unlock()
		err := ctx.Err()
		if err == nil {
			err = route(s.plan.nodes[ni].list)
		}
		s.mu.Lock()
		if err != nil {
			if s.err == nil {
				s.err = err
			}
			s.wake.Broadcast()
			return
		}
		s.left--
		if up := s.plan.nodes[ni].parent; up >= 0 {
			if s.pending[up]--; s.pending[up] == 0 {
				s.ready = append(s.ready, up)
			}
		}
		if s.left == 0 {
			s.wake.Broadcast()
		}
	}
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
