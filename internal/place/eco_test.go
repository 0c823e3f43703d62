package place

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"casyn/internal/geom"
)

func identityMap(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestPlaceECO(t *testing.T) {
	t.Parallel()
	layout, err := LayoutWithRows(10, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	nl := &Netlist{Widths: []float64{4, 4, 4, 4}}
	base := ECOBase{
		Place: &Placement{
			Pos: []geom.Point{geom.Pt(11, 2.5), geom.Pt(21, 12.5), geom.Pt(31, 22.5), geom.Pt(41, 32.5)},
			Row: []int{0, 2, 4, 6},
		},
		Widths: []float64{4, 4, 4, 4},
		Seeds:  []geom.Point{geom.Pt(10, 2), geom.Pt(20, 12), geom.Pt(30, 22), geom.Pt(40, 32)},
	}
	prev := base.Place

	// Unchanged seeds keep the previous legalized placement verbatim.
	seeds := append([]geom.Point(nil), base.Seeds...)
	p, _, moved, err := PlaceECO(nl, layout, base, seeds, identityMap(4))
	if err != nil || moved != 0 {
		t.Fatalf("err=%v moved=%d, want nil, 0", err, moved)
	}
	for i := range p.Pos {
		if p.Pos[i] != prev.Pos[i] || p.Row[i] != prev.Row[i] {
			t.Fatalf("cell %d changed: pos %v row %d", i, p.Pos[i], p.Row[i])
		}
	}

	// A moved seed over free space lands on it, on the nearest row;
	// everything else stays put. The previous placement is never
	// mutated.
	seeds[2] = geom.Pt(73, 41)
	p, _, moved, err = PlaceECO(nl, layout, base, seeds, identityMap(4))
	if err != nil || moved != 1 {
		t.Fatalf("err=%v moved=%d, want nil, 1", err, moved)
	}
	wantRow := layout.RowOf(41)
	if p.Row[2] != wantRow || p.Pos[2] != geom.Pt(73, layout.RowY(wantRow)) {
		t.Errorf("moved cell: pos %v row %d, want (73, %g) row %d", p.Pos[2], p.Row[2], layout.RowY(wantRow), wantRow)
	}
	for _, i := range []int{0, 1, 3} {
		if p.Pos[i] != prev.Pos[i] || p.Row[i] != prev.Row[i] {
			t.Errorf("unmoved cell %d changed: pos %v", i, p.Pos[i])
		}
	}
	if prev.Pos[2] != geom.Pt(31, 22.5) || prev.Row[2] != 4 {
		t.Error("previous placement was mutated")
	}

	// Seeds outside the die clamp to it (by half the cell width).
	seeds[3] = geom.Pt(150, -9)
	p, _, moved, err = PlaceECO(nl, layout, base, seeds, identityMap(4))
	if err != nil || moved != 2 {
		t.Fatalf("err=%v moved=%d, want nil, 2", err, moved)
	}
	if p.Pos[3].X != layout.Die.Max.X-2 || p.Row[3] != 0 {
		t.Errorf("clamped cell: pos %v row %d, want x=%g row 0", p.Pos[3], p.Row[3], layout.Die.Max.X-2)
	}

	// Insertions, removals and shifted indices: cell 0 is removed, the
	// others shift down one index, and a new cell seeded on top of the
	// kept cell at (21, 12.5) lands in the nearest gap beside it.
	shifted := &Netlist{Widths: []float64{4, 4, 4, 2}}
	p, _, moved, err = PlaceECO(shifted, layout, base,
		[]geom.Point{base.Seeds[1], base.Seeds[2], base.Seeds[3], geom.Pt(21.5, 12.5)}, []int{1, 2, 3, -1})
	if err != nil || moved != 1 {
		t.Fatalf("err=%v moved=%d, want nil, 1", err, moved)
	}
	for i, o := range []int{1, 2, 3} {
		if p.Pos[i] != prev.Pos[o] || p.Row[i] != prev.Row[o] {
			t.Errorf("shifted cell %d (was %d) changed: pos %v", i, o, p.Pos[i])
		}
	}
	if p.Row[3] != 2 || p.Pos[3] != geom.Pt(24, 12.5) {
		t.Errorf("inserted cell: pos %v row %d, want (24, 12.5) row 2", p.Pos[3], p.Row[3])
	}

	// A full die leaves the caller to fall back to a full placement.
	one, _ := LayoutWithRows(1, 8, 5)
	full := ECOBase{
		Place:  &Placement{Pos: []geom.Point{geom.Pt(2, 2.5), geom.Pt(6, 2.5)}, Row: []int{0, 0}},
		Widths: []float64{4, 4},
		Seeds:  []geom.Point{geom.Pt(2, 2), geom.Pt(6, 2)},
	}
	grown := &Netlist{Widths: []float64{4, 4, 1}}
	if _, _, _, err := PlaceECO(grown, one, full, []geom.Point{geom.Pt(2, 2), geom.Pt(6, 2), geom.Pt(4, 2)}, []int{0, 1, -1}); !errors.Is(err, ErrNoRoom) {
		t.Errorf("insert into a full die: err=%v, want ErrNoRoom", err)
	}

	// Malformed maps and inputs are refused.
	for _, tc := range []struct {
		name  string
		base  ECOBase
		seeds []geom.Point
		oldOf []int
	}{
		{"out-of-range map entry", base, base.Seeds, []int{0, 1, 2, 4}},
		{"duplicate map entry", base, base.Seeds, []int{0, 1, 1, 3}},
		{"short map", base, base.Seeds, []int{0, 1, 2}},
		{"short seeds", base, base.Seeds[:3], identityMap(4)},
		{"nil previous placement", ECOBase{Widths: base.Widths, Seeds: base.Seeds}, base.Seeds, identityMap(4)},
		{"short previous widths", ECOBase{Place: prev, Widths: base.Widths[:3], Seeds: base.Seeds}, base.Seeds, identityMap(4)},
	} {
		if _, _, _, err := PlaceECO(nl, layout, tc.base, tc.seeds, tc.oldOf); err == nil || errors.Is(err, ErrNoRoom) {
			t.Errorf("%s: err=%v, want a refusal", tc.name, err)
		}
	}
}

// ecoWidths are the cell widths the random ECO placements draw from.
var ecoWidths = []float64{0, 1, 1.5, 2, 2.5, 3}

// randomLegal packs every row but one spare left to right, to the
// die's right edge, with random widths (including zero and half units)
// separated by random half-unit gaps of up to maxGap, and seeds every
// cell near its position. The spare row keeps room for re-placed cells
// that outgrow the gaps.
func randomLegal(rng *rand.Rand, layout Layout, maxGap int) ECOBase {
	var b ECOBase
	b.Place = &Placement{}
	spare := rng.Intn(layout.NumRows)
	for r := 0; r < layout.NumRows; r++ {
		if r == spare {
			continue
		}
		x := layout.Die.Min.X + float64(rng.Intn(maxGap+1))*0.5
		for {
			w := ecoWidths[rng.Intn(len(ecoWidths))]
			if x+w > layout.Die.Max.X {
				break
			}
			b.Place.Pos = append(b.Place.Pos, geom.Pt(x+w/2, layout.RowY(r)))
			b.Place.Row = append(b.Place.Row, r)
			b.Widths = append(b.Widths, w)
			b.Seeds = append(b.Seeds, geom.Pt(x+w/2+rng.NormFloat64(), layout.RowY(r)+rng.NormFloat64()))
			x += w + float64(rng.Intn(maxGap+1))*0.5
		}
	}
	return b
}

// bestDisplacement is the brute-force reference for nearestGap: the
// minimum |dx| + |dy| over every gap of every row that fits w.
func bestDisplacement(occ [][]span, layout Layout, seed geom.Point, w float64) float64 {
	x := math.Min(math.Max(seed.X, layout.Die.Min.X+w/2), layout.Die.Max.X-w/2)
	best := math.Inf(1)
	for r, row := range occ {
		s := append([]span(nil), row...)
		sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo || s[i].lo == s[j].lo && s[i].hi < s[j].hi })
		edges := append([]float64{layout.Die.Min.X}, make([]float64, 0, 2*len(s)+1)...)
		for _, sp := range s {
			edges = append(edges, sp.lo, sp.hi)
		}
		edges = append(edges, layout.Die.Max.X)
		for k := 0; k+1 < len(edges); k += 2 {
			l, h := edges[k], edges[k+1]
			if h-l < w {
				continue
			}
			cx := math.Min(math.Max(x, l+w/2), h-w/2)
			if d := math.Abs(cx-x) + math.Abs(layout.RowY(r)-seed.Y); d < best {
				best = d
			}
		}
	}
	return best
}

// TestPlaceECOProperty drives PlaceECO with random inserted, removed,
// moved and width-changed cells under shuffled indices, and checks
// the result is legal, kept cells are verbatim, every re-placed cell
// sits at the brute-force nearest free position, and the previous
// placement is not mutated.
func TestPlaceECOProperty(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		layout, err := LayoutWithRows(2+rng.Intn(11), 20+rng.Float64()*40, 5)
		if err != nil {
			t.Fatal(err)
		}
		base := randomLegal(rng, layout, 1+rng.Intn(8))
		snap := ECOBase{
			Place:  &Placement{Pos: append([]geom.Point(nil), base.Place.Pos...), Row: append([]int(nil), base.Place.Row...)},
			Widths: append([]float64(nil), base.Widths...),
			Seeds:  append([]geom.Point(nil), base.Seeds...),
		}

		// The edited netlist: survivors (some moved, some resized) plus
		// insertions, in shuffled order.
		type cell struct {
			old  int
			w    float64
			seed geom.Point
		}
		var cells []cell
		randSeed := func() geom.Point {
			return geom.Pt(layout.Die.Min.X-5+rng.Float64()*(layout.Die.W()+10),
				layout.Die.Min.Y-5+rng.Float64()*(layout.Die.H()+10))
		}
		for o := range base.Widths {
			c := cell{old: o, w: base.Widths[o], seed: base.Seeds[o]}
			switch rng.Intn(10) {
			case 0:
				continue // removed
			case 1:
				c.seed = randSeed()
			case 2:
				c.w = ecoWidths[rng.Intn(len(ecoWidths))]
			}
			cells = append(cells, c)
		}
		for k := rng.Intn(6); k > 0; k-- {
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

		p, _, moved, err := PlaceECO(nl, layout, base, seeds, oldOf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		occ := make([][]span, layout.NumRows)
		var replaced []int
		for i, c := range cells {
			kept := c.old >= 0 && c.w == base.Widths[c.old] && c.seed == base.Seeds[c.old]
			if !kept {
				replaced = append(replaced, i)
				continue
			}
			if p.Pos[i] != base.Place.Pos[c.old] || p.Row[i] != base.Place.Row[c.old] {
				t.Fatalf("trial %d: kept cell %d (was %d) moved to %v", trial, i, c.old, p.Pos[i])
			}
			occ[p.Row[i]] = append(occ[p.Row[i]], span{p.Pos[i].X - c.w/2, p.Pos[i].X + c.w/2})
		}
		if moved != len(replaced) {
			t.Fatalf("trial %d: moved=%d, want %d", trial, moved, len(replaced))
		}
		for _, i := range replaced {
			want := bestDisplacement(occ, layout, seeds[i], nl.Widths[i])
			x := math.Min(math.Max(seeds[i].X, layout.Die.Min.X+nl.Widths[i]/2), layout.Die.Max.X-nl.Widths[i]/2)
			got := math.Abs(p.Pos[i].X-x) + math.Abs(p.Pos[i].Y-seeds[i].Y)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: re-placed cell %d displaced %g, nearest free position is %g away", trial, i, got, want)
			}
			occ[p.Row[i]] = append(occ[p.Row[i]], span{p.Pos[i].X - nl.Widths[i]/2, p.Pos[i].X + nl.Widths[i]/2})
		}
		checkLegal(t, nl, layout, p)

		if !equalBase(base, snap) {
			t.Fatalf("trial %d: previous placement was mutated", trial)
		}
	}
}

// checkLegal asserts every cell sits on its row's center inside the
// die and no two cells of a row overlap.
func checkLegal(t *testing.T, nl *Netlist, layout Layout, p *Placement) {
	t.Helper()
	const eps = 1e-9
	byRow := make([][]int, layout.NumRows)
	for c, pt := range p.Pos {
		r, hw := p.Row[c], nl.Widths[c]/2
		if r < 0 || r >= layout.NumRows || pt.Y != layout.RowY(r) {
			t.Fatalf("cell %d at %v is not on row %d's center", c, pt, r)
		}
		if pt.X-hw < layout.Die.Min.X-eps || pt.X+hw > layout.Die.Max.X+eps {
			t.Fatalf("cell %d at %v (width %g) leaves the die %v", c, pt, nl.Widths[c], layout.Die)
		}
		byRow[r] = append(byRow[r], c)
	}
	for r, cells := range byRow {
		sort.Slice(cells, func(i, j int) bool { return p.Pos[cells[i]].X < p.Pos[cells[j]].X })
		for k := 1; k < len(cells); k++ {
			a, b := cells[k-1], cells[k]
			if p.Pos[a].X+nl.Widths[a]/2 > p.Pos[b].X-nl.Widths[b]/2+eps {
				t.Fatalf("row %d: cells %d at %v and %d at %v overlap", r, a, p.Pos[a], b, p.Pos[b])
			}
		}
	}
}

func equalBase(a, b ECOBase) bool {
	if len(a.Place.Pos) != len(b.Place.Pos) {
		return false
	}
	for i := range a.Place.Pos {
		if a.Place.Pos[i] != b.Place.Pos[i] || a.Place.Row[i] != b.Place.Row[i] ||
			a.Widths[i] != b.Widths[i] || a.Seeds[i] != b.Seeds[i] {
			return false
		}
	}
	return true
}
