package place

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"casyn/internal/geom"
	"casyn/internal/obs"
)

// Options tunes the placer.
type Options struct {
	// Seed drives all randomized tie-breaking; equal seeds give equal
	// placements.
	Seed int64
	// RefinePasses bounds the post-legalization greedy swap
	// refinement. 0 means the default (4); negative disables.
	RefinePasses int
}

// Fixed bisection parameters.
const (
	// minRegionCells stops the recursion; regions at or below this
	// size are placed directly.
	minRegionCells = 8
	// fmPasses bounds the FM refinement passes per bisection.
	fmPasses = 6
	// balanceTolerance is the allowed deviation from a perfect width
	// split, as a fraction.
	balanceTolerance = 0.2
)

func (o *Options) defaults() {
	if o.RefinePasses == 0 {
		o.RefinePasses = 4
	}
}

// PlaceNetlist places the netlist on the layout image by recursive
// min-cut bisection with FM refinement and terminal propagation,
// followed by row legalization. The returned placement holds each
// cell's center and row.
//
// Cancellation is cooperative: the bisection recursion and the
// refinement passes both check ctx and return a wrapped ctx error
// promptly when it is canceled or its deadline passes.
func PlaceNetlist(ctx context.Context, nl *Netlist, layout Layout, opts Options) (*Placement, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	n := nl.NumCells()
	p := &Placement{Pos: make([]geom.Point, n), Row: make([]int, n)}
	if n == 0 {
		return p, nil
	}
	if layout.NumRows < 1 {
		return nil, fmt.Errorf("place: layout has no rows")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	pins := 0
	for ni := range nl.Nets {
		pins += len(nl.Nets[ni].Cells)
	}
	b := &bisector{
		ctx:     ctx,
		nl:      nl,
		rng:     rng,
		pos:     p.Pos,
		ofCell:  nl.cellNets(),
		padBox:  padBoxes(nl),
		inside:  make([]int32, n),
		netSeen: make([]int32, len(nl.Nets)),
		local:   make([]int32, n),
		arena:   make([]int32, 0, pins),
		split:   make([]int, 0, n),
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// Seed every cell at the die center so terminal propagation has
	// positions to work with before a region is split.
	c := layout.Die.Center()
	for i := range p.Pos {
		p.Pos[i] = c
	}
	_, span := obs.From(ctx).StartSpan(ctx, "place.bisect")
	b.run(all, layout.Die)
	span.End(b.err)
	if b.err != nil {
		return nil, b.err
	}
	legalize(nl, layout, p)
	if opts.RefinePasses > 0 {
		if err := refine(ctx, nl, layout, p, opts.RefinePasses, rng); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// padBoxes precomputes each net's pad bounding box (if any).
func padBoxes(nl *Netlist) []*geom.Rect {
	out := make([]*geom.Rect, len(nl.Nets))
	for ni := range nl.Nets {
		if len(nl.Nets[ni].Pads) == 0 {
			continue
		}
		bb := geom.BoundingBox(nl.Nets[ni].Pads)
		out[ni] = &bb
	}
	return out
}

type bisector struct {
	ctx    context.Context
	err    error // first ctx error; aborts the recursion
	nl     *Netlist
	rng    *rand.Rand
	pos    []geom.Point
	ofCell [][]int32
	padBox []*geom.Rect
	// inside[c] is the epoch marker of the region currently being
	// processed (avoids repeated map allocation).
	inside []int32
	// netSeen[ni] == epoch marks nets already collected by the current
	// partition call.
	netSeen []int32
	epoch   int32
	local   []int32 // scratch: global cell -> local index for this region

	// Scratch reused by every region, so the recursion allocates
	// nothing per region. prob and the side slice partition returns
	// are overwritten by the next partition call; run consumes them
	// before recursing.
	prob fmProblem
	side []bool
	fm   fmScratch
	// arena holds every fmNet.cells slice of the current problem. Its
	// capacity is the netlist's pin count, which bounds one region's
	// listings, so it never reallocates.
	arena []int32
	split []int     // run's in-place split of a region's cells
	leaf  []leafPos // placeLeaf's ordering
}

// run recursively bisects the region and assigns final positions to
// terminal regions. Every recursion step is a cooperative cancellation
// point; once the context errors the whole recursion unwinds.
func (b *bisector) run(cells []int, region geom.Rect) {
	if b.err != nil {
		return
	}
	if cerr := b.ctx.Err(); cerr != nil {
		b.err = fmt.Errorf("place: bisection canceled: %w", cerr)
		return
	}
	if len(cells) == 0 {
		return
	}
	if len(cells) <= minRegionCells || region.W() < 1e-6 || region.H() < 1e-6 {
		b.placeLeaf(cells, region)
		return
	}
	vertical := region.W() >= region.H() // split the wider dimension
	sideOf := b.partition(cells, region, vertical)
	// Split the region in proportion to the width assigned per side so
	// utilization stays uniform.
	var wA, wTot float64
	for i, c := range cells {
		wTot += b.nl.Widths[c] + 1e-9
		if !sideOf[i] {
			wA += b.nl.Widths[c] + 1e-9
		}
	}
	frac := wA / wTot
	const minFrac = 0.1
	if frac < minFrac {
		frac = minFrac
	}
	if frac > 1-minFrac {
		frac = 1 - minFrac
	}
	var regA, regB geom.Rect
	if vertical {
		cut := region.Min.X + region.W()*frac
		regA = geom.R(region.Min.X, region.Min.Y, cut, region.Max.Y)
		regB = geom.R(cut, region.Min.Y, region.Max.X, region.Max.Y)
	} else {
		cut := region.Min.Y + region.H()*frac
		regA = geom.R(region.Min.X, region.Min.Y, region.Max.X, cut)
		regB = geom.R(region.Min.X, cut, region.Max.X, region.Max.Y)
	}
	// Split cells in place, side A first; both halves keep ascending
	// cell order, which partition relies on.
	na := 0
	tmp := b.split[:0]
	for i, c := range cells {
		if sideOf[i] {
			tmp = append(tmp, c)
		} else {
			cells[na] = c
			na++
		}
	}
	copy(cells[na:], tmp)
	b.split = tmp
	cellsA, cellsB := cells[:na], cells[na:]
	// Move cells to their region centers so sibling terminal
	// propagation sees up-to-date positions.
	ca, cb := regA.Center(), regB.Center()
	for _, c := range cellsA {
		b.pos[c] = ca
	}
	for _, c := range cellsB {
		b.pos[c] = cb
	}
	b.run(cellsA, regA)
	b.run(cellsB, regB)
}

// leafPos is a leaf cell and its ordering coordinate.
type leafPos struct {
	cell  int
	score float64
}

// placeLeaf spreads a terminal region's cells in a line along the
// region's wider dimension, ordered to respect neighbor positions.
func (b *bisector) placeLeaf(cells []int, region geom.Rect) {
	// Order cells by the centroid of their external connections so the
	// final micro-ordering keeps wires short.
	horizontal := region.W() >= region.H()
	sc := grow(b.leaf, len(cells))
	b.leaf = sc
	for i, c := range cells {
		pt := b.externalCentroid(c, cells)
		if horizontal {
			sc[i] = leafPos{c, pt.X}
		} else {
			sc[i] = leafPos{c, pt.Y}
		}
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score < sc[j].score })
	step := 1.0 / float64(len(cells)+1)
	for i, s := range sc {
		f := step * float64(i+1)
		if horizontal {
			b.pos[s.cell] = geom.Pt(region.Min.X+region.W()*f, region.Center().Y)
		} else {
			b.pos[s.cell] = geom.Pt(region.Center().X, region.Min.Y+region.H()*f)
		}
	}
}

// externalCentroid returns the average position of everything cell c
// connects to outside the given region cells (other cells' current
// positions and pad boxes); falls back to the cell's own position.
func (b *bisector) externalCentroid(c int, regionCells []int) geom.Point {
	b.epoch++
	for _, rc := range regionCells {
		b.inside[rc] = b.epoch
	}
	var sum geom.Point
	cnt := 0
	for _, ni := range b.ofCell[c] {
		net := &b.nl.Nets[ni]
		for _, oc := range net.Cells {
			if b.inside[oc] == b.epoch {
				continue
			}
			sum = sum.Add(b.pos[oc])
			cnt++
		}
		if pb := b.padBox[ni]; pb != nil {
			sum = sum.Add(pb.Center())
			cnt++
		}
	}
	if cnt == 0 {
		return b.pos[c]
	}
	return sum.Scale(1 / float64(cnt))
}

// partition builds the FM problem for the region (with terminal
// propagation) and returns the side of each cell (parallel to cells).
// The problem and the returned slice are b's scratch, overwritten by
// the next call.
func (b *bisector) partition(cells []int, region geom.Rect, vertical bool) []bool {
	b.epoch++
	for li, c := range cells {
		b.inside[c] = b.epoch
		b.local[c] = int32(li)
	}
	mid := region.Center()
	prob := &b.prob
	prob.width = grow(prob.width, len(cells))
	var wTot float64
	for i, c := range cells {
		w := b.nl.Widths[c] + 1e-9 // zero-width cells still need balance mass
		prob.width[i] = w
		wTot += w
	}
	half := wTot / 2
	slack := wTot * balanceTolerance / 2
	prob.targetLo, prob.targetHi = half-slack, half+slack

	// Collect nets with >= 2 endpoints in this region or 1 endpoint
	// plus external terminals.
	sideA := func(pt geom.Point) bool {
		if vertical {
			return pt.X < mid.X
		}
		return pt.Y < mid.Y
	}
	prob.nets = prob.nets[:0]
	arena := b.arena[:0]
	for _, c := range cells {
		for _, ni := range b.ofCell[c] {
			if b.netSeen[ni] == b.epoch {
				continue
			}
			b.netSeen[ni] = b.epoch
			net := &b.nl.Nets[ni]
			var f fmNet
			start := len(arena)
			for _, oc := range net.Cells {
				if b.inside[oc] == b.epoch {
					arena = append(arena, b.local[oc])
				} else if sideA(b.pos[oc]) {
					f.extA++
				} else {
					f.extB++
				}
			}
			for _, pad := range net.Pads {
				if sideA(pad) {
					f.extA++
				} else {
					f.extB++
				}
			}
			f.cells = arena[start:len(arena):len(arena)]
			if len(f.cells) == 0 || (len(f.cells) == 1 && f.extA+f.extB == 0) {
				arena = arena[:start]
				continue
			}
			// Clamp external terminal influence so one huge net cannot
			// dominate the gain scale.
			if f.extA > 2 {
				f.extA = 2
			}
			if f.extB > 2 {
				f.extB = 2
			}
			prob.nets = append(prob.nets, f)
		}
	}
	b.arena = arena
	prob.linkCells()

	// Initial partition: split at the balance point in cell order.
	// Every region's cells sit at one point (the die centre at the top,
	// then the region centre run moves them to) and come in ascending
	// index order, so that is the order a stable sort along the split
	// axis, ties broken by index, would give.
	b.side = grow(b.side, len(cells))
	side := b.side
	acc := 0.0
	for li := range side {
		side[li] = acc >= half
		acc += prob.width[li]
	}
	runFM(prob, side, fmPasses, b.rng, &b.fm)
	return side
}

// legalize snaps approximate positions to standard-cell rows: cells
// are distributed to rows by y-order with row capacity balancing, then
// packed within each row by x-order with uniform whitespace.
func legalize(nl *Netlist, layout Layout, p *Placement) {
	n := nl.NumCells()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := p.Pos[order[i]], p.Pos[order[j]]
		if pi.Y != pj.Y {
			return pi.Y < pj.Y
		}
		return pi.X < pj.X
	})
	// Assign each cell to the row nearest its target y, spilling
	// upward when a row reaches the die width. A floor of
	// total/NumRows per row keeps very dense designs from cascading
	// everything into the top rows.
	totW := nl.TotalWidth() + float64(n)*1e-9
	capRow := layout.Die.W()
	if perRow := totW / float64(layout.NumRows); perRow > capRow {
		capRow = perRow // infeasible density: fall back to even fill
	}
	rows := make([][]int, layout.NumRows)
	r, acc := 0, 0.0
	for _, c := range order {
		w := nl.Widths[c] + 1e-9
		if ideal := layout.RowOf(p.Pos[c].Y); ideal > r {
			r = ideal
			acc = 0
		}
		if acc+w > capRow && r < layout.NumRows-1 {
			r++
			acc = 0
		}
		rows[r] = append(rows[r], c)
		acc += w
	}
	for r, rowCells := range rows {
		sort.SliceStable(rowCells, func(i, j int) bool {
			return p.Pos[rowCells[i]].X < p.Pos[rowCells[j]].X
		})
		packRow(nl, layout, p, r, rowCells)
	}
}

// packRow places a row's cells as close to their target x as overlap
// and the die boundary allow: a left-to-right greedy pass at
// max(cursor, target), then a right-to-left clamp pass that pushes any
// overflow back inside the die.
func packRow(nl *Netlist, layout Layout, p *Placement, r int, rowCells []int) {
	y := layout.RowY(r)
	cursor := layout.Die.Min.X
	for _, c := range rowCells {
		left := p.Pos[c].X - nl.Widths[c]/2
		if left < cursor {
			left = cursor
		}
		p.Pos[c] = geom.Pt(left+nl.Widths[c]/2, y)
		p.Row[c] = r
		cursor = left + nl.Widths[c]
	}
	// Clamp pass: if the row overflowed the right edge, slide cells
	// back left just enough, preserving order and non-overlap.
	cursor = layout.Die.Max.X
	for i := len(rowCells) - 1; i >= 0; i-- {
		c := rowCells[i]
		right := p.Pos[c].X + nl.Widths[c]/2
		if right > cursor {
			right = cursor
			p.Pos[c] = geom.Pt(right-nl.Widths[c]/2, y)
		}
		cursor = right - nl.Widths[c]
	}
}
