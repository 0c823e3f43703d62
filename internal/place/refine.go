package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
		sort.Slice(row, func(i, j int) bool { return p.Pos[row[i]].X < p.Pos[row[j]].X })
	}

	// target returns the median of the other pins of c's nets.
	var xs, ys []float64
	target := func(c int) (geom.Point, bool) {
		xs, ys = xs[:0], ys[:0]
		for _, ni := range cellNets[c] {
			net := &nl.Nets[ni]
			if len(net.Cells)+len(net.Pads) > 64 {
				continue // hub nets barely move with one cell
			}
			for _, oc := range net.Cells {
				if oc != c {
					xs = append(xs, p.Pos[oc].X)
					ys = append(ys, p.Pos[oc].Y)
				}
			}
			for _, pad := range net.Pads {
				xs = append(xs, pad.X)
				ys = append(ys, pad.Y)
			}
		}
		if len(xs) == 0 {
			return geom.Point{}, false
		}
		return geom.Pt(nth(xs, len(xs)/2), nth(ys, len(ys)/2)), true
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
			tgt, ok := target(c)
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
			sort.Slice(row, func(i, j int) bool { return p.Pos[row[i]].X < p.Pos[row[j]].X })
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
// moved cells' nets rather than to those nets' pin counts.
//
// Invariant: outside try/commit, box[ni] and hp[ni] equal what
// Netlist.NetHPWL computes from scratch for p (hp is 0 below degree 2).
// A box is a min/max over the pins, so it is exact in floating point
// and its half-perimeter is bit-identical to NetHPWL's.
type hpwlCache struct {
	nl  *Netlist
	p   *Placement
	box []geom.Rect
	hp  []float64

	// Scratch for the move being tried: the tentative box and HPWL of
	// each touched net, stamped with the move's epoch; on records which
	// moved cells sit on the net (bit 0 the first, bit 1 the second).
	tryBox  []geom.Rect
	tryHP   []float64
	stamp   []int32
	on      []uint8
	epoch   int32
	touched []int32
}

func newHPWLCache(nl *Netlist, p *Placement) *hpwlCache {
	m := len(nl.Nets)
	h := &hpwlCache{
		nl:     nl,
		p:      p,
		box:    make([]geom.Rect, m),
		hp:     make([]float64, m),
		tryBox: make([]geom.Rect, m),
		tryHP:  make([]float64, m),
		stamp:  make([]int32, m),
		on:     make([]uint8, m),
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
	h.mark(netsA, 1)
	h.mark(netsB, 2)
	for _, ni := range h.touched {
		if h.nl.Nets[ni].Degree() < 2 {
			h.tryHP[ni] = 0
			continue
		}
		bb := h.box[ni]
		onA, onB := h.on[ni]&1 != 0, h.on[ni]&2 != 0
		if onA && leaves(bb, oldA, h.p.Pos[a]) || onB && leaves(bb, oldB, h.p.Pos[b]) {
			bb = h.nl.netBox(h.p, int(ni))
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
		if h.on[ni]&1 == 0 {
			before += h.hp[ni]
			after += h.tryHP[ni]
		}
	}
	return before, after
}

// mark records that the cell owning nets sits on each of them.
func (h *hpwlCache) mark(nets []int32, bit uint8) {
	for _, ni := range nets {
		if h.stamp[ni] != h.epoch {
			h.stamp[ni] = h.epoch
			h.on[ni] = 0
			h.touched = append(h.touched, ni)
		}
		h.on[ni] |= bit
	}
}

// commit adopts the last tried move's boxes.
func (h *hpwlCache) commit() {
	for _, ni := range h.touched {
		h.box[ni] = h.tryBox[ni]
		h.hp[ni] = h.tryHP[ni]
	}
}

// nth returns the k-th smallest element of xs — xs[k] of sorted order —
// reordering xs in place. It is a quickselect with median-of-three
// pivots and three-way partitioning, so duplicate-heavy inputs stay
// linear.
func nth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		pivot := max(a, b)
		// [lo,lt) < pivot, [lt,gt] == pivot, (gt,hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				xs[i], xs[gt] = xs[gt], x
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return xs[k]
		}
	}
	return xs[k]
}
