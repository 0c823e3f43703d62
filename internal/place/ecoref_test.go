package place

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"casyn/internal/geom"
)

// referencePlaceECO is PlaceECO as it was before it carried row spans
// between calls, kept as its bit-for-bit oracle: it rebuilds every
// row's span list from the kept cells and sorts each row, then places
// the other cells exactly as PlaceECO does. base.Rows is ignored. It
// returns the final rows too.
func referencePlaceECO(nl *Netlist, layout Layout, base ECOBase, seeds []geom.Point, oldOf []int) (*Placement, [][]span, int, error) {
	n := nl.NumCells()
	prev := base.Place
	m := len(prev.Pos)
	p := &Placement{Pos: make([]geom.Point, n), Row: make([]int, n)}
	rows := make([][]span, layout.NumRows)
	claimed := make([]bool, m)
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
		p.Pos[i], p.Row[i] = prev.Pos[o], r
		hw := nl.Widths[i] / 2
		rows[r] = append(rows[r], span{prev.Pos[o].X - hw, prev.Pos[o].X + hw})
	}
	for _, row := range rows {
		slices.SortFunc(row, cmpSpan)
	}
	for _, i := range replace {
		x, r, g, ok := nearestGap(rows, layout, seeds[i], nl.Widths[i])
		if !ok {
			return nil, nil, 0, ErrNoRoom
		}
		p.Pos[i], p.Row[i] = geom.Pt(x, layout.RowY(r)), r
		hw := nl.Widths[i] / 2
		rows[r] = slices.Insert(rows[r], g, span{x - hw, x + hw})
	}
	return p, rows, len(replace), nil
}

// TestPlaceECOChainMatchesReference chains 60 random cell-set edits
// (removed, moved, resized and inserted cells under shuffled indices)
// per trial, each placed against the previous step's placement and row
// spans, and checks every position and row against the reference that
// rebuilds and sorts the rows, and the carried spans against the
// reference's rows, sorted as its next call would sort them.
func TestPlaceECOChainMatchesReference(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		layout, err := LayoutWithRows(4+rng.Intn(8), 30+rng.Float64()*40, 5)
		if err != nil {
			t.Fatal(err)
		}
		base := randomLegal(rng, layout, 1+rng.Intn(8))
		carried := 0
		for step := 0; step < 60; step++ {
			nl, seeds, oldOf := randomECOEdit(rng, layout, base)
			got, rows, moved, err := PlaceECO(nl, layout, base, seeds, oldOf)
			refBase := base
			refBase.Rows = nil
			want, wantRows, wantMoved, werr := referencePlaceECO(nl, layout, refBase, seeds, oldOf)
			if errors.Is(werr, ErrNoRoom) {
				if !errors.Is(err, ErrNoRoom) {
					t.Fatalf("trial %d step %d: err=%v, reference ErrNoRoom", trial, step, err)
				}
				continue
			}
			if err != nil || werr != nil {
				t.Fatalf("trial %d step %d: err=%v, reference err=%v", trial, step, err, werr)
			}
			if moved != wantMoved || !slices.Equal(got.Pos, want.Pos) || !slices.Equal(got.Row, want.Row) {
				t.Fatalf("trial %d step %d: placement differs from the reference (moved %d, want %d)", trial, step, moved, wantMoved)
			}
			checkLegal(t, nl, layout, got)
			// The reference sorts the rows the next call starts from.
			for _, row := range wantRows {
				slices.SortFunc(row, cmpSpan)
			}
			if !slices.EqualFunc(rows.rows, wantRows, slices.Equal) {
				t.Fatalf("trial %d step %d: row spans differ from the reference's sorted rows", trial, step)
			}
			if base.Rows != nil {
				carried++
			}
			base = ECOBase{Place: got, Widths: nl.Widths, Seeds: seeds, Rows: rows}
		}
		if carried < 50 {
			t.Errorf("trial %d: only %d steps placed against carried row spans, want 50", trial, carried)
		}
	}
}

// randomECOEdit draws the next netlist of an ECO chain against base:
// each previous cell is removed, moved or resized with a small
// probability, up to three cells are inserted, and the cells are
// shuffled.
func randomECOEdit(rng *rand.Rand, layout Layout, base ECOBase) (*Netlist, []geom.Point, []int) {
	type cell struct {
		old  int
		w    float64
		seed geom.Point
	}
	randSeed := func() geom.Point {
		return geom.Pt(layout.Die.Min.X-5+rng.Float64()*(layout.Die.W()+10),
			layout.Die.Min.Y-5+rng.Float64()*(layout.Die.H()+10))
	}
	var cells []cell
	for o := range base.Widths {
		c := cell{old: o, w: base.Widths[o], seed: base.Seeds[o]}
		switch rng.Intn(40) {
		case 0:
			continue // removed
		case 1:
			c.seed = randSeed()
		case 2:
			c.w = ecoWidths[rng.Intn(len(ecoWidths))]
		}
		cells = append(cells, c)
	}
	for k := rng.Intn(4); k > 0; k-- {
		cells = append(cells, cell{old: -1, w: ecoWidths[rng.Intn(len(ecoWidths))], seed: randSeed()})
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	nl := &Netlist{}
	seeds := make([]geom.Point, len(cells))
	oldOf := make([]int, len(cells))
	for i, c := range cells {
		nl.Widths = append(nl.Widths, c.w)
		seeds[i], oldOf[i] = c.seed, c.old
	}
	return nl, seeds, oldOf
}
