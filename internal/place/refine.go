package place

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"casyn/internal/geom"
	"casyn/internal/obs"
)

// refine greedily reduces HPWL after legalization with two move
// classes that both preserve legality exactly:
//
//   - equal-width swap: exchange the positions of two cells of the
//     same width (possibly in different rows), chosen by steering each
//     cell toward the median of its connected pins;
//   - adjacent-pair swap: exchange two neighboring cells within a row,
//     re-packing them inside their combined span (works for unequal
//     widths).
//
// Moves are accepted only when the summed HPWL of the affected nets
// decreases, so refinement is monotone.
//
// Refinement checks ctx between passes and periodically inside each
// pass; on cancellation it returns a wrapped ctx error (the placement
// stays legal — every accepted move preserves legality).
func refine(ctx context.Context, nl *Netlist, layout Layout, p *Placement, passes int, rng *rand.Rand) (err error) {
	n := nl.NumCells()
	if n < 2 || passes <= 0 {
		return nil
	}
	rec := obs.From(ctx)
	_, span := rec.StartSpan(ctx, "place.refine")
	defer func() { span.End(err) }()
	// checkEvery bounds the work between cancellation checks.
	const checkEvery = 1024
	cellNets := nl.cellNets()
	cache := newHPWLCache(nl, p)

	// Cells grouped by exact width; class[c] indexes c's group, whose
	// members are the candidates for an equal-width swap. A group is
	// listed in ascending cell order.
	var classes [][]int32
	class := make([]int32, n)
	classOf := map[float64]int32{}
	for c := 0; c < n; c++ {
		w := nl.Widths[c]
		id, ok := classOf[w]
		if !ok {
			id = int32(len(classes))
			classOf[w] = id
			classes = append(classes, nil)
		}
		class[c] = id
		classes[id] = append(classes[id], int32(c))
	}
	mates := newClassIndex(classes, p.Pos)

	// Row membership for adjacent-pair swaps, kept sorted by x.
	rows := make([][]int32, layout.NumRows)
	for c := 0; c < n; c++ {
		r := p.Row[c]
		if r >= 0 && r < layout.NumRows {
			rows[r] = append(rows[r], int32(c))
		}
	}
	for r := range rows {
		row := rows[r]
		sortRow(row, p.Pos)
	}

	order := make([]int, n)
	passesC := rec.Counter("place.refine_passes")
	movesC := rec.Counter("place.refine_moves")
	for pass := 0; pass < passes; pass++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("place: refinement canceled: %w", cerr)
		}
		passesC.Add(1)
		improved := 0
		// Equal-width swaps toward targets.
		order = perm(rng, order)
		for oi, c := range order {
			if oi%checkEvery == checkEvery-1 {
				if cerr := ctx.Err(); cerr != nil {
					return fmt.Errorf("place: refinement canceled: %w", cerr)
				}
			}
			// The median of the other pins of c's small nets.
			tgt, ok := cache.med.target(p.Pos[c], cellNets[c])
			if !ok {
				continue
			}
			if tgt.Manhattan(p.Pos[c]) < layout.RowHeight {
				continue // already close
			}
			// Find the classmate nearest the target among one residue
			// set of c's class, drawn at random.
			k := class[c]
			best, bestD := mates.nearest(k, rng.Intn(mates.step[k]), c, tgt)
			if best < 0 || bestD >= tgt.Manhattan(p.Pos[c]) {
				continue
			}
			d := best
			oldC, oldD := p.Pos[c], p.Pos[d]
			p.Pos[c], p.Pos[d] = oldD, oldC
			p.Row[c], p.Row[d] = p.Row[d], p.Row[c]
			before, after := cache.try(c, d, oldC, oldD, cellNets[c], cellNets[d])
			if after < before-1e-9 {
				improved++
				cache.commit()
				mates.move(c, p.Pos[c])
				mates.move(d, p.Pos[d])
				// Fix row membership lists lazily: rebuild below.
			} else {
				p.Pos[c], p.Pos[d] = p.Pos[d], p.Pos[c]
				p.Row[c], p.Row[d] = p.Row[d], p.Row[c]
			}
		}
		// Rebuild row lists after cross-row swaps.
		for r := range rows {
			rows[r] = rows[r][:0]
		}
		for c := 0; c < n; c++ {
			r := p.Row[c]
			if r >= 0 && r < layout.NumRows {
				rows[r] = append(rows[r], int32(c))
			}
		}
		// Adjacent-pair swaps within rows.
		for r := range rows {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("place: refinement canceled: %w", cerr)
			}
			row := rows[r]
			sortRow(row, p.Pos)
			for i := 0; i+1 < len(row); i++ {
				a, b := int(row[i]), int(row[i+1])
				// Combined span: [left edge of a, right edge of b].
				left := p.Pos[a].X - nl.Widths[a]/2
				right := p.Pos[b].X + nl.Widths[b]/2
				if right-left < nl.Widths[a]+nl.Widths[b]-1e-9 {
					continue // overlapping input; skip
				}
				oldA, oldB := p.Pos[a], p.Pos[b]
				// b moves to the left edge, a to the right edge.
				p.Pos[b] = geom.Pt(left+nl.Widths[b]/2, oldB.Y)
				p.Pos[a] = geom.Pt(right-nl.Widths[a]/2, oldA.Y)
				before, after := cache.try(a, b, oldA, oldB, cellNets[a], cellNets[b])
				if after < before-1e-9 {
					improved++
					cache.commit()
					mates.move(a, p.Pos[a])
					mates.move(b, p.Pos[b])
					row[i], row[i+1] = row[i+1], row[i]
				} else {
					p.Pos[a], p.Pos[b] = oldA, oldB
				}
			}
		}
		movesC.Add(int64(improved))
		if improved == 0 {
			break
		}
	}
	return nil
}

// classIndex finds the equal-width swap partner: the classmate nearest
// a target point. A class of more than 512 cells is searched through
// one of step residue sets, cl[o], cl[o+step], … for a random offset
// o, which keeps a query cheap for huge classes; smaller classes are a
// single set. Each (class, residue) set is a run of entries sorted by
// x, so a query walks outward from the target's x and stops once the
// x distance alone exceeds the best distance found.
//
// Invariant: outside a move, each entry's x and y equal its cell's
// committed position and every set is sorted by x. nearest then
// returns exactly what a linear scan of the set returns.
type classIndex struct {
	ents  []classEnt
	start []int32 // set s is ents[start[s]:start[s+1]]
	first []int32 // class k's residue o is set first[k]+o
	step  []int   // class k's residue count
	slot  []int32 // cell -> its entry's index in ents
	set   []int32 // cell -> its set
}

// classEnt is one cell in its residue set; pos is its position in its
// class list, the scan's tie-break.
type classEnt struct {
	x, y      float64
	pos, cell int32
}

func newClassIndex(classes [][]int32, at []geom.Point) *classIndex {
	n := len(at)
	ix := &classIndex{
		ents:  make([]classEnt, 0, n),
		start: []int32{0},
		first: make([]int32, len(classes)),
		step:  make([]int, len(classes)),
		slot:  make([]int32, n),
		set:   make([]int32, n),
	}
	for k, cl := range classes {
		step := 1
		if len(cl) > 512 {
			step = len(cl) / 512
		}
		ix.first[k], ix.step[k] = int32(len(ix.start)-1), step
		for o := 0; o < step; o++ {
			lo := len(ix.ents)
			for i := o; i < len(cl); i += step {
				c := cl[i]
				ix.ents = append(ix.ents, classEnt{at[c].X, at[c].Y, int32(i), c})
			}
			set := ix.ents[lo:]
			sort.Slice(set, func(i, j int) bool { return set[i].x < set[j].x })
			for i, e := range set {
				ix.slot[e.cell] = int32(lo + i)
				ix.set[e.cell] = int32(len(ix.start) - 1)
			}
			ix.start = append(ix.start, int32(len(ix.ents)))
		}
	}
	return ix
}

// nearest returns the member of class k's residue set o nearest tgt in
// Manhattan distance, and that distance, skipping cell self; ties go
// to the lowest class position. best is -1 when the set holds no other
// cell.
func (ix *classIndex) nearest(k int32, o, self int, tgt geom.Point) (best int, bestD float64) {
	s := ix.first[k] + int32(o)
	set := ix.ents[ix.start[s]:ix.start[s+1]]
	r := sort.Search(len(set), func(i int) bool { return set[i].x >= tgt.X })
	l := r - 1
	best, bestD = -1, math.Inf(1)
	bestPos := int32(0)
	// Visit entries in order of x distance. The x distance never
	// exceeds the Manhattan distance, so once it passes bestD no
	// remaining entry can win or tie.
	for l >= 0 || r < len(set) {
		var e *classEnt
		if r == len(set) || l >= 0 && tgt.X-set[l].x <= set[r].x-tgt.X {
			e = &set[l]
			l--
		} else {
			e = &set[r]
			r++
		}
		dx := math.Abs(tgt.X - e.x)
		if dx > bestD {
			break
		}
		if int(e.cell) == self {
			continue
		}
		if d := dx + math.Abs(tgt.Y-e.y); d < bestD || d == bestD && e.pos < bestPos {
			best, bestD, bestPos = int(e.cell), d, e.pos
		}
	}
	return best, bestD
}

// move re-keys cell c's entry to its committed position to, shifting
// the entries between its old and new slot.
func (ix *classIndex) move(c int, to geom.Point) {
	i := ix.slot[c]
	lo, hi := ix.start[ix.set[c]], ix.start[ix.set[c]+1]
	e := ix.ents[i]
	e.x, e.y = to.X, to.Y
	for ; i > lo && ix.ents[i-1].x > e.x; i-- {
		ix.ents[i] = ix.ents[i-1]
		ix.slot[ix.ents[i].cell] = i
	}
	for ; i+1 < hi && ix.ents[i+1].x < e.x; i++ {
		ix.ents[i] = ix.ents[i+1]
		ix.slot[ix.ents[i].cell] = i
	}
	ix.ents[i] = e
	ix.slot[c] = i
}

// hpwlCache holds every net's exact pin bounding box and HPWL under the
// current placement, so a tried move costs time proportional to the
// moved cells' nets rather than to those nets' pin counts. It owns the
// medianIndex, whose sorted windows give a small net's box after a
// move without reading its pins' positions, and re-keys it on commit.
//
// Invariant: outside try/commit, box[ni] and hp[ni] equal what
// Netlist.NetHPWL computes from scratch for p (hp is 0 below degree 2).
// A box is a min/max over the pins, so it is exact in floating point
// and its half-perimeter is bit-identical to NetHPWL's.
type hpwlCache struct {
	nl  *Netlist
	p   *Placement
	med *medianIndex
	box []geom.Rect
	hp  []float64

	// Scratch for the move being tried: the tentative box and HPWL of
	// each touched net, stamped with the move's epoch; on counts the
	// listings of each moved cell on the net (the first, the second);
	// last is the move itself.
	tryBox  []geom.Rect
	tryHP   []float64
	stamp   []int32
	on      [][2]int32
	epoch   int32
	touched []int32
	last    struct {
		a, b         int
		oldA, oldB   geom.Point
		netsA, netsB []int32
	}
}

func newHPWLCache(nl *Netlist, p *Placement) *hpwlCache {
	m := len(nl.Nets)
	h := &hpwlCache{
		nl:     nl,
		p:      p,
		med:    newMedianIndex(nl, p),
		box:    make([]geom.Rect, m),
		hp:     make([]float64, m),
		tryBox: make([]geom.Rect, m),
		tryHP:  make([]float64, m),
		stamp:  make([]int32, m),
		on:     make([][2]int32, m),
	}
	for ni := range nl.Nets {
		if nl.Nets[ni].Degree() >= 2 {
			h.box[ni] = nl.netBox(p, ni)
			h.hp[ni] = h.box[ni].HalfPerimeter()
		}
	}
	return h
}

// leaves reports whether moving a pin from `from` to `to` can shrink
// bb: some coordinate changes and its old value lies on bb's edge.
func leaves(bb geom.Rect, from, to geom.Point) bool {
	return from.X != to.X && (from.X == bb.Min.X || from.X == bb.Max.X) ||
		from.Y != to.Y && (from.Y == bb.Min.Y || from.Y == bb.Max.Y)
}

// try evaluates a move of cells a and b, already applied to p, from
// oldA and oldB. It returns the summed HPWL of their nets before and
// after the move, each summed in the same order and multiplicity as a
// from-scratch evaluation would: a's nets, then b's nets not on a's
// list. The tentative boxes stay in scratch until commit.
func (h *hpwlCache) try(a, b int, oldA, oldB geom.Point, netsA, netsB []int32) (before, after float64) {
	h.epoch++
	h.touched = h.touched[:0]
	h.mark(netsA, 0)
	h.mark(netsB, 1)
	h.last.a, h.last.b, h.last.oldA, h.last.oldB, h.last.netsA, h.last.netsB = a, b, oldA, oldB, netsA, netsB
	for _, ni := range h.touched {
		if h.nl.Nets[ni].Degree() < 2 {
			h.tryHP[ni] = 0
			continue
		}
		bb := h.box[ni]
		on := h.on[ni]
		onA, onB := on[0] > 0, on[1] > 0
		if onA && leaves(bb, oldA, h.p.Pos[a]) || onB && leaves(bb, oldB, h.p.Pos[b]) {
			var ok bool
			if bb, ok = h.med.boxAfter(ni, on, oldA, h.p.Pos[a], oldB, h.p.Pos[b]); !ok {
				bb = h.nl.netBox(h.p, int(ni))
			}
		} else {
			if onA {
				bb = extend(bb, h.p.Pos[a])
			}
			if onB {
				bb = extend(bb, h.p.Pos[b])
			}
		}
		h.tryBox[ni] = bb
		h.tryHP[ni] = bb.HalfPerimeter()
	}
	for _, ni := range netsA {
		before += h.hp[ni]
		after += h.tryHP[ni]
	}
	for _, ni := range netsB {
		if h.on[ni][0] == 0 {
			before += h.hp[ni]
			after += h.tryHP[ni]
		}
	}
	return before, after
}

// mark counts the listings of moved cell `which` (0 or 1), whose nets
// are nets, on each of them.
func (h *hpwlCache) mark(nets []int32, which int) {
	for _, ni := range nets {
		if h.stamp[ni] != h.epoch {
			h.stamp[ni] = h.epoch
			h.on[ni] = [2]int32{}
			h.touched = append(h.touched, ni)
		}
		h.on[ni][which]++
	}
}

// commit adopts the last tried move's boxes and re-keys the moved
// cells in the median windows.
func (h *hpwlCache) commit() {
	for _, ni := range h.touched {
		h.box[ni] = h.tryBox[ni]
		h.hp[ni] = h.tryHP[ni]
	}
	m := &h.last
	h.med.move(m.oldA, h.p.Pos[m.a], m.netsA)
	h.med.move(m.oldB, h.p.Pos[m.b], m.netsB)
}

// sortRow sorts a row's cells by x. slices.SortFunc runs the same
// pdqsort as sort.Slice, so ties land in the same order.
func sortRow(row []int32, at []geom.Point) {
	slices.SortFunc(row, func(a, b int32) int { return cmp.Compare(at[a].X, at[b].X) })
}

// medianIndex keeps, for every net of at most 64 pins, its pins' x and
// y coordinates sorted in per-net windows of one flat array: one entry
// per cell listing and one per pad. A net of L pins has its x window
// and then its y window, each of L entries, so a small net's two sit
// in one or two cache lines. A hub net's windows are empty; hub nets
// barely move with one cell, so targets ignore them.
//
// Invariant: outside a move, each window of net ni holds exactly the
// multiset of its listings' committed coordinates and its pads' on
// that axis, in ascending order.
type medianIndex struct {
	// Net ni's windows are L = start[ni+1]-start[ni] entries each,
	// starting at vals[2*start[ni]].
	start []int32
	vals  []float64
	heads []medianHead // target's scratch
	walk  []walkHead   // kth's scratch
}

// medianHead is one net in a target query: its x window starts at lo
// and its y window at lo+l, each l entries long, and the cell's
// multiplicity m on the net is the weight of each entry.
type medianHead struct {
	lo, l, m int32
}

// walkHead is a medianHead during kth's walk: v is the entry at cur,
// the next unread one, and skip counts the copies of the cell's own
// coordinate still to pass over.
type walkHead struct {
	v       float64
	cur, hi int32
	m, skip int32
}

// maxTargetPins is the largest net, in pins, that steers a target and
// keeps sorted windows.
const maxTargetPins = 64

func newMedianIndex(nl *Netlist, p *Placement) *medianIndex {
	ix := &medianIndex{start: make([]int32, len(nl.Nets)+1)}
	for ni := range nl.Nets {
		k := ix.start[ni]
		if d := nl.Nets[ni].Degree(); d <= maxTargetPins {
			k += int32(d)
		}
		ix.start[ni+1] = k
	}
	ix.vals = make([]float64, 2*ix.start[len(nl.Nets)])
	for ni := range nl.Nets {
		lo, l := 2*int(ix.start[ni]), int(ix.start[ni+1]-ix.start[ni])
		if l == 0 {
			continue
		}
		xs, ys := ix.vals[lo:lo+l], ix.vals[lo+l:lo+2*l]
		k := 0
		for _, c := range nl.Nets[ni].Cells {
			xs[k], ys[k] = p.Pos[c].X, p.Pos[c].Y
			k++
		}
		for _, pad := range nl.Nets[ni].Pads {
			xs[k], ys[k] = pad.X, pad.Y
			k++
		}
		slices.Sort(xs)
		slices.Sort(ys)
	}
	return ix
}

// move re-keys a committed move of the cell whose nets are nets (once
// per listing) from `from` to `to`: each listing's window trades one
// copy of the old coordinate for the new one.
func (ix *medianIndex) move(from, to geom.Point, nets []int32) {
	for _, ni := range nets {
		lo, l := 2*ix.start[ni], ix.start[ni+1]-ix.start[ni]
		if l == 0 {
			continue
		}
		if from.X != to.X {
			replaceSorted(ix.vals[lo:lo+l], from.X, to.X)
		}
		if from.Y != to.Y {
			replaceSorted(ix.vals[lo+l:lo+2*l], from.Y, to.Y)
		}
	}
}

// boxAfter returns net ni's pin bounding box after a tried move: on[0]
// listings move from oldA to newA and on[1] from oldB to newB, while
// the windows still hold the committed coordinates. ok is false for a
// hub net, which has no windows. The box is the min and max of the
// same multiset of coordinates a scan of the moved pins gives.
func (ix *medianIndex) boxAfter(ni int32, on [2]int32, oldA, newA, oldB, newB geom.Point) (bb geom.Rect, ok bool) {
	lo, l := 2*ix.start[ni], ix.start[ni+1]-ix.start[ni]
	if l == 0 {
		return geom.Rect{}, false
	}
	xs, ys := ix.vals[lo:lo+l], ix.vals[lo+l:lo+2*l]
	// The windows without the moved listings' old coordinates; either
	// both axes keep an entry or neither does.
	var rest bool
	bb.Min.X, bb.Max.X, rest = ends(xs, on[0], oldA.X, on[1], oldB.X)
	bb.Min.Y, bb.Max.Y, _ = ends(ys, on[0], oldA.Y, on[1], oldB.Y)
	for k, to := range [2]geom.Point{newA, newB} {
		if on[k] == 0 {
			continue
		}
		if rest {
			bb = extend(bb, to)
		} else {
			bb, rest = geom.Rect{Min: to, Max: to}, true
		}
	}
	return bb, true
}

// ends returns the smallest and largest entries of the ascending w
// once ma copies of a and mb copies of b are taken out; ok is false
// when nothing is left.
func ends(w []float64, ma int32, a float64, mb int32, b float64) (lo, hi float64, ok bool) {
	i, ra, rb := 0, ma, mb
	for ; i < len(w); i++ {
		if w[i] == a && ra > 0 {
			ra--
		} else if w[i] == b && rb > 0 {
			rb--
		} else {
			break
		}
	}
	if i == len(w) {
		return 0, 0, false
	}
	j, ra, rb := len(w)-1, ma, mb
	for ; ; j-- {
		if w[j] == a && ra > 0 {
			ra--
		} else if w[j] == b && rb > 0 {
			rb--
		} else {
			break
		}
	}
	return w[i], w[j], true
}

// replaceSorted replaces one entry equal to old in the ascending w by
// v, shifting the entries between the two places so w stays sorted.
func replaceSorted(w []float64, old, v float64) {
	i := 0
	for i+1 < len(w) && w[i] < old {
		i++
	}
	for ; i > 0 && w[i-1] > v; i-- {
		w[i] = w[i-1]
	}
	for ; i+1 < len(w) && w[i+1] < v; i++ {
		w[i] = w[i+1]
	}
	w[i] = v
}

// target returns the median of the other pins of a cell's small nets,
// the cell sitting at `at` with its nets listed in nets (once per
// listing, a net's listings adjacent). It is the order statistic
// total/2 of the multiset a gather builds by visiting each listing's
// net and collecting every pin but the cell's: a net on which the cell
// has multiplicity m adds each of its other pins m times. ok is false
// when that multiset is empty.
func (ix *medianIndex) target(at geom.Point, nets []int32) (tgt geom.Point, ok bool) {
	heads := ix.heads[:0]
	total := 0
	for k := 0; k < len(nets); {
		ni, m := nets[k], 1
		for k+m < len(nets) && nets[k+m] == ni {
			m++
		}
		k += m
		l := int(ix.start[ni+1] - ix.start[ni])
		if l <= m {
			continue // a hub net, or no pin but the cell's
		}
		total += m * (l - m)
		heads = append(heads, medianHead{lo: 2 * ix.start[ni], l: int32(l), m: int32(m)})
	}
	ix.heads = heads
	if total == 0 {
		return geom.Point{}, false
	}
	return geom.Pt(ix.kth(0, at.X, total/2), ix.kth(1, at.Y, total/2)), true
}

// kth walks the axis windows (0 for x, 1 for y) of the nets ix.heads
// names in merged ascending order, weighting each entry by its net's multiplicity and
// skipping m copies of self on each net, and returns the entry at
// weighted rank k (0-based). The weighted count must exceed k.
//
// Where several windows hold equal entries, the order the walk takes
// them in changes neither the count before that value nor the count
// after it, so the result does not depend on it; an exhausted window
// leaves the walk by a swap with the last.
func (ix *medianIndex) kth(axis int32, self float64, k int) float64 {
	heads, vals := ix.heads, ix.vals
	if len(heads) == 1 {
		// One window: rank k is entry k/m of the window without the
		// m copies of self, which start where self does.
		h := heads[0]
		lo := h.lo + axis*h.l
		w := vals[lo : lo+h.l]
		j := k / int(h.m)
		s := 0
		for w[s] < self {
			s++
		}
		if j >= s {
			j += int(h.m)
		}
		return w[j]
	}
	walk := ix.walk[:0]
	for _, h := range heads {
		lo := h.lo + axis*h.l
		walk = append(walk, walkHead{v: vals[lo], cur: lo, hi: lo + h.l, m: h.m, skip: h.m})
	}
	ix.walk = walk
	seen := 0
	for {
		best := 0
		for j := 1; j < len(walk); j++ {
			if walk[j].v < walk[best].v {
				best = j
			}
		}
		h := &walk[best]
		v := h.v
		// Take the window's whole run of v.
		for {
			if v == self && h.skip > 0 {
				h.skip--
			} else if seen += int(h.m); seen > k {
				return v
			}
			if h.cur++; h.cur == h.hi {
				walk[best] = walk[len(walk)-1]
				walk = walk[:len(walk)-1]
				break
			}
			if h.v = vals[h.cur]; h.v != v {
				break
			}
		}
	}
}
