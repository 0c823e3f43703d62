package place

// Incremental placement for ECO synthesis. After a small edit almost
// every cell has the same identity, footprint and mapper seed (its
// covered gates' center of mass on the companion placement) as a cell
// of the previous netlist, so that cell's previous legalized position
// is still the right answer. PlaceECO keeps those verbatim and drops
// every other cell — moved, inserted, or resized — into the free gap
// nearest its seed. There is no global re-legalization and no
// refinement sweep, so the routing dirty region stays as small as the
// edit. The result is legal (no overlaps, on a row, inside the die)
// whenever the previous placement's kept cells are; it is deliberately
// NOT byte-identical to PlaceSeeded on the edited netlist. It is the
// placement half of the flow's fast-ECO mode.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"casyn/internal/geom"
)

// ECOBase is the previous placement PlaceECO updates, with the width
// and mapper seed every previous cell was placed with.
type ECOBase struct {
	Place  *Placement
	Widths []float64
	Seeds  []geom.Point
	// Rows optionally carries Place's row spans, as returned by the
	// PlaceECO call that made Place; nil builds them from Place and
	// Widths.
	Rows *RowSpans
}

// RowSpans holds the occupied x extents of every row of one placement,
// each row sorted by (lo, hi) — what PlaceECO searches for free gaps.
// PlaceECO returns the spans of the placement it makes, so that the
// next call on that placement copies them instead of rebuilding and
// sorting every row.
type RowSpans struct {
	rows [][]span
	// cells is the placement's cell count.
	cells int
}

// ErrNoRoom reports that a re-placed cell fits in no row's free gaps;
// the caller falls back to a full placement.
var ErrNoRoom = errors.New("place: no row has a free gap for a re-placed cell")

// span is the occupied x extent of one placed cell.
type span struct{ lo, hi float64 }

// cmpSpan orders spans by (lo, hi), so a zero-width span touching a
// cell's left edge sorts before it and every gap lies between
// neighbors. Equal spans are interchangeable.
func cmpSpan(a, b span) int {
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	return cmp.Compare(a.hi, b.hi)
}

// PlaceECO incrementally updates base.Place for an edited netlist.
// oldOf maps each cell of nl to the previous cell with the same
// identity, or -1 for an inserted cell. Cell i keeps the previous
// position verbatim when oldOf[i] >= 0 and its width and seed equal
// the previous cell's; every other cell is placed, in index order, at
// the position nearest seeds[i] (Manhattan, x clamped inside the die)
// in a free gap of any row. Previous cells nothing maps to are
// removed. Returns the new placement, its row spans (the next call's
// ECOBase.Rows) and the number of re-placed cells. An out-of-range or
// duplicate oldOf entry, inputs that do not cover their netlists, or
// row spans of another placement are an error; ErrNoRoom means some
// cell fits nowhere and the caller must fall back to a full placement.
// base is never mutated.
//
// The previous rows are copied and the spans of the cells not kept
// deleted, which leaves exactly the sorted spans of the kept cells.
func PlaceECO(nl *Netlist, layout Layout, base ECOBase, seeds []geom.Point, oldOf []int) (*Placement, *RowSpans, int, error) {
	n := nl.NumCells()
	prev := base.Place
	if prev == nil {
		return nil, nil, 0, fmt.Errorf("place: PlaceECO needs a previous placement")
	}
	m := len(prev.Pos)
	if len(prev.Row) != m || len(base.Widths) != m || len(base.Seeds) != m {
		return nil, nil, 0, fmt.Errorf("place: previous placement, widths and seeds cover %d, %d and %d cells",
			m, len(base.Widths), len(base.Seeds))
	}
	if len(seeds) != n || len(oldOf) != n {
		return nil, nil, 0, fmt.Errorf("place: %d seeds and %d map entries for %d cells", len(seeds), len(oldOf), n)
	}
	if layout.NumRows < 1 {
		return nil, nil, 0, fmt.Errorf("place: layout has no rows")
	}
	if base.Rows != nil && (len(base.Rows.rows) != layout.NumRows || base.Rows.cells != m) {
		return nil, nil, 0, fmt.Errorf("place: row spans of %d rows and %d cells for a %d-row placement of %d cells",
			len(base.Rows.rows), base.Rows.cells, layout.NumRows, m)
	}
	p := &Placement{Pos: make([]geom.Point, n), Row: make([]int, n)}
	claimed := make([]bool, m)
	kept := make([]bool, m)
	var replace []int
	for i, o := range oldOf {
		if o < 0 {
			replace = append(replace, i)
			continue
		}
		if o >= m {
			return nil, nil, 0, fmt.Errorf("place: cell %d maps to previous cell %d of %d", i, o, m)
		}
		if claimed[o] {
			return nil, nil, 0, fmt.Errorf("place: previous cell %d is mapped twice", o)
		}
		claimed[o] = true
		r := prev.Row[o]
		if nl.Widths[i] != base.Widths[o] || seeds[i] != base.Seeds[o] || r < 0 || r >= layout.NumRows {
			replace = append(replace, i)
			continue
		}
		kept[o] = true
		p.Pos[i], p.Row[i] = prev.Pos[o], r
	}
	rows := base.Rows
	if rows == nil {
		rows = buildRows(layout, prev, base.Widths)
	}
	out, err := rows.without(layout, prev, base.Widths, kept)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, i := range replace {
		x, r, g, ok := nearestGap(out.rows, layout, seeds[i], nl.Widths[i])
		if !ok {
			return nil, nil, 0, ErrNoRoom
		}
		p.Pos[i], p.Row[i] = geom.Pt(x, layout.RowY(r)), r
		hw := nl.Widths[i] / 2
		out.rows[r] = slices.Insert(out.rows[r], g, span{x - hw, x + hw})
	}
	// Rounding can put an inserted span's lo a hair below its left
	// neighbor's: sort the rows cells went into, so the next call
	// starts from exactly the sorted spans a rebuild would make.
	for _, i := range replace {
		slices.SortFunc(out.rows[p.Row[i]], cmpSpan)
	}
	out.cells = n
	return p, out, len(replace), nil
}

// cellSpan is the span of previous cell o.
func cellSpan(prev *Placement, widths []float64, o int) span {
	hw := widths[o] / 2
	return span{prev.Pos[o].X - hw, prev.Pos[o].X + hw}
}

// buildRows collects and sorts the spans of every cell of a placement
// that sits on a row of the layout.
func buildRows(layout Layout, pl *Placement, widths []float64) *RowSpans {
	rs := &RowSpans{rows: make([][]span, layout.NumRows), cells: len(pl.Pos)}
	for o, r := range pl.Row {
		if r >= 0 && r < layout.NumRows {
			rs.rows[r] = append(rs.rows[r], cellSpan(pl, widths, o))
		}
	}
	for _, row := range rs.rows {
		slices.SortFunc(row, cmpSpan)
	}
	return rs
}

// without returns a copy of the rows of prev with the spans of the
// cells not kept deleted. The rows are windows of one array, each with
// a little room for the cells PlaceECO inserts next.
func (rs *RowSpans) without(layout Layout, prev *Placement, widths []float64, kept []bool) (*RowSpans, error) {
	// drop lists the deleted spans by row, then (lo, hi).
	type dropped struct {
		row int
		s   span
	}
	var drop []dropped
	for o, k := range kept {
		if r := prev.Row[o]; !k && r >= 0 && r < layout.NumRows {
			drop = append(drop, dropped{r, cellSpan(prev, widths, o)})
		}
	}
	slices.SortFunc(drop, func(a, b dropped) int {
		if c := cmp.Compare(a.row, b.row); c != 0 {
			return c
		}
		return cmpSpan(a.s, b.s)
	})
	const room = 2
	total := 0
	for _, row := range rs.rows {
		total += len(row) + room
	}
	flat := make([]span, 0, total)
	out := &RowSpans{rows: make([][]span, len(rs.rows))}
	for r, row := range rs.rows {
		lo := len(flat)
		for _, s := range row {
			if len(drop) > 0 && drop[0].row == r && drop[0].s == s {
				drop = drop[1:]
				continue
			}
			flat = append(flat, s)
		}
		if len(drop) > 0 && drop[0].row == r {
			return nil, fmt.Errorf("place: row spans do not match the previous placement (row %d)", r)
		}
		out.rows[r] = flat[lo : len(flat) : len(flat)+room]
		flat = flat[:len(flat)+room]
	}
	return out, nil
}

// nearestGap finds the free position for a cell of width w nearest
// seed: the cell's x is clamped inside the die, and the displacement
// is |dx| + |dy| to the row center. Rows are walked outward from the
// seed's row in order of vertical distance and the walk stops once
// that distance alone reaches the best displacement found, so the
// search window follows from the gaps rather than a constant. Ties go
// to the first found. Returns the cell's x, its row, the index in
// rows[row] its span is inserted at, and false when no row has room.
func nearestGap(rows [][]span, layout Layout, seed geom.Point, w float64) (float64, int, int, bool) {
	die := layout.Die
	if w > die.W() {
		return 0, 0, 0, false
	}
	x := math.Min(math.Max(seed.X, die.Min.X+w/2), die.Max.X-w/2)
	best, bestX, bestRow, bestGap := math.Inf(1), 0.0, -1, 0
	r0 := layout.RowOf(seed.Y)
	lo, hi := r0, r0+1
	for lo >= 0 || hi < layout.NumRows {
		r := lo
		switch {
		case lo < 0:
			r = hi
		case hi < layout.NumRows && math.Abs(layout.RowY(hi)-seed.Y) < math.Abs(layout.RowY(lo)-seed.Y):
			r = hi
		}
		if r == lo {
			lo--
		} else {
			hi++
		}
		dy := math.Abs(layout.RowY(r) - seed.Y)
		if dy >= best {
			break
		}
		if gx, g, dx, ok := rowGap(rows[r], die, x, w, best-dy); ok {
			best, bestX, bestRow, bestGap = dx+dy, gx, r, g
		}
	}
	return bestX, bestRow, bestGap, bestRow >= 0
}

// rowGap finds, in one row's sorted spans, the gap position for a
// cell of width w nearest x with horizontal displacement below limit.
// Gap g lies between spans g-1 and g (the die edges bound the ends).
// The walk goes outward from the gap at x and stops once a gap's near
// edge alone is limit away.
func rowGap(row []span, die geom.Rect, x, w, limit float64) (float64, int, float64, bool) {
	gapLo := func(g int) float64 {
		if g == 0 {
			return die.Min.X
		}
		return row[g-1].hi
	}
	gapHi := func(g int) float64 {
		if g == len(row) {
			return die.Max.X
		}
		return row[g].lo
	}
	bestX, bestG, bestD, found := 0.0, 0, limit, false
	try := func(g int) {
		l, h := gapLo(g), gapHi(g)
		if h-l < w {
			return
		}
		cx := math.Min(math.Max(x, l+w/2), h-w/2)
		if d := math.Abs(cx - x); d < bestD {
			bestX, bestG, bestD, found = cx, g, d, true
		}
	}
	at := sort.Search(len(row), func(j int) bool { return row[j].lo > x })
	for g := at; g >= 0 && x-(gapHi(g)-w/2) < bestD; g-- {
		try(g)
	}
	for g := at + 1; g <= len(row) && gapLo(g)+w/2-x < bestD; g++ {
		try(g)
	}
	return bestX, bestG, bestD, found
}
