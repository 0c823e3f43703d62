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
	// MinRegionCells stops the recursion; regions at or below this
	// size are placed directly. 0 means the default (8).
	MinRegionCells int
	// FMPasses bounds the refinement passes per bisection. 0 means the
	// default (6).
	FMPasses int
	// BalanceTolerance is the allowed deviation from a perfect width
	// split, as a fraction (default 0.2).
	BalanceTolerance float64
	// RefinePasses bounds the post-legalization greedy swap
	// refinement. 0 means the default (4); negative disables.
	RefinePasses int
	// Analytic selects the quadratic-wirelength global placer with
	// density spreading instead of recursive min-cut bisection.
	Analytic bool
	// AnalyticIters is the solve/spread iteration count (default 12).
	AnalyticIters int
}

func (o *Options) defaults() {
	if o.MinRegionCells == 0 {
		o.MinRegionCells = 8
	}
	if o.FMPasses == 0 {
		o.FMPasses = 6
	}
	if o.BalanceTolerance == 0 {
		o.BalanceTolerance = 0.2
	}
	if o.RefinePasses == 0 {
		o.RefinePasses = 4
	}
	if o.AnalyticIters == 0 {
		o.AnalyticIters = 12
	}
}

// PlaceNetlist places the netlist on the layout image by recursive
// min-cut bisection with FM refinement and terminal propagation,
// followed by row legalization. The returned placement holds each
// cell's center and row.
//
// Cancellation is cooperative: the bisection recursion, the analytic
// solve/spread loop, and the refinement passes all check ctx and
// return a wrapped ctx error promptly when it is canceled or its
// deadline passes.
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
	if opts.Analytic {
		ap := newAnalyticPlacer(nl, layout, rng)
		global, err := ap.run(ctx, opts.AnalyticIters)
		if err != nil {
			return nil, err
		}
		copy(p.Pos, global)
		legalize(nl, layout, p)
		if opts.RefinePasses > 0 {
			if err := refine(ctx, nl, layout, p, opts.RefinePasses, rng); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	b := &bisector{
		ctx:     ctx,
		nl:      nl,
		opts:    opts,
		rng:     rng,
		pos:     p.Pos,
		ofCell:  nl.cellNets(),
		padBox:  padBoxes(nl),
		inside:  make([]int32, n),
		netSeen: make([]int32, len(nl.Nets)),
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
	opts   Options
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
	if len(cells) <= b.opts.MinRegionCells || region.W() < 1e-6 || region.H() < 1e-6 {
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
	var cellsA, cellsB []int
	for i, c := range cells {
		if sideOf[i] {
			cellsB = append(cellsB, c)
		} else {
			cellsA = append(cellsA, c)
		}
	}
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

// placeLeaf spreads a terminal region's cells in a line along the
// region's wider dimension, ordered to respect neighbor positions.
func (b *bisector) placeLeaf(cells []int, region geom.Rect) {
	// Order cells by the centroid of their external connections so the
	// final micro-ordering keeps wires short.
	type scored struct {
		cell  int
		score float64
	}
	horizontal := region.W() >= region.H()
	sc := make([]scored, len(cells))
	for i, c := range cells {
		pt := b.externalCentroid(c, cells)
		if horizontal {
			sc[i] = scored{c, pt.X}
		} else {
			sc[i] = scored{c, pt.Y}
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
func (b *bisector) partition(cells []int, region geom.Rect, vertical bool) []bool {
	b.epoch++
	if b.local == nil {
		b.local = make([]int32, len(b.nl.Widths))
	}
	for li, c := range cells {
		b.inside[c] = b.epoch
		b.local[c] = int32(li)
	}
	mid := region.Center()
	prob := &fmProblem{
		cells: cells,
		width: make([]float64, len(cells)),
	}
	var wTot float64
	for i, c := range cells {
		w := b.nl.Widths[c] + 1e-9 // zero-width cells still need balance mass
		prob.width[i] = w
		wTot += w
	}
	half := wTot / 2
	slack := wTot * b.opts.BalanceTolerance / 2
	prob.targetLo, prob.targetHi = half-slack, half+slack

	// Collect nets with >= 2 endpoints in this region or 1 endpoint
	// plus external terminals.
	sideA := func(pt geom.Point) bool {
		if vertical {
			return pt.X < mid.X
		}
		return pt.Y < mid.Y
	}
	for _, c := range cells {
		for _, ni := range b.ofCell[c] {
			if b.netSeen[ni] == b.epoch {
				continue
			}
			b.netSeen[ni] = b.epoch
			net := &b.nl.Nets[ni]
			var f fmNet
			for _, oc := range net.Cells {
				if b.inside[oc] == b.epoch {
					f.cells = append(f.cells, b.local[oc])
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
			if len(f.cells) == 0 || (len(f.cells) == 1 && f.extA+f.extB == 0) {
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
	prob.ofCell = make([][]int32, len(cells))
	for ni := range prob.nets {
		for _, lc := range prob.nets[ni].cells {
			prob.ofCell[lc] = append(prob.ofCell[lc], int32(ni))
		}
	}

	// Initial partition: sort along the split axis (stable spatial
	// seeding), then split at the balance point.
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := b.pos[cells[order[i]]], b.pos[cells[order[j]]]
		if vertical {
			if pi.X != pj.X {
				return pi.X < pj.X
			}
		} else {
			if pi.Y != pj.Y {
				return pi.Y < pj.Y
			}
		}
		return cells[order[i]] < cells[order[j]]
	})
	side := make([]bool, len(cells))
	acc := 0.0
	for _, li := range order {
		if acc >= half {
			side[li] = true
		}
		acc += prob.width[li]
	}
	runFM(prob, side, b.opts.FMPasses, b.rng)
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
