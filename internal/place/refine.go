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
	// members are the candidates for an equal-width swap.
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

	passesC := rec.Counter("place.refine_passes")
	movesC := rec.Counter("place.refine_moves")
	for pass := 0; pass < passes; pass++ {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("place: refinement canceled: %w", cerr)
		}
		passesC.Add(1)
		improved := 0
		// Equal-width swaps toward targets.
		order := rng.Perm(n)
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
			cl := classes[class[c]]
			// Find the classmate nearest the target.
			best, bestD := -1, math.Inf(1)
			// Sampled scan keeps this O(1)-ish per cell for huge
			// classes while staying exact for small ones.
			step := 1
			if len(cl) > 512 {
				step = len(cl) / 512
			}
			for i := rng.Intn(step); i < len(cl); i += step {
				d := int(cl[i])
				if d == c {
					continue
				}
				dist := tgt.Manhattan(p.Pos[d])
				if dist < bestD {
					best, bestD = d, dist
				}
			}
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
