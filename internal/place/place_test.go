package place

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"casyn/internal/geom"
)

func TestNewLayout(t *testing.T) {
	t.Parallel()
	l, err := NewLayout(207062, 1.0, 6.656)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Area()-207062) > 207062*0.01 {
		t.Errorf("area = %g, want ~207062", l.Area())
	}
	// Paper: 207062 µm², aspect 1 → 71 rows at 6.656 µm row height
	// is one plausible quantization; ours must land within a row.
	if l.NumRows < 66 || l.NumRows > 70 {
		t.Logf("rows = %d (die %.1f x %.1f)", l.NumRows, l.Die.W(), l.Die.H())
	}
	if _, err := NewLayout(-1, 1, 1); err == nil {
		t.Error("negative area accepted")
	}
	if _, err := LayoutWithRows(0, 10, 1); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestLayoutRows(t *testing.T) {
	t.Parallel()
	l, err := LayoutWithRows(10, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if l.Die.H() != 50 || l.Die.W() != 100 {
		t.Fatalf("die = %v", l.Die)
	}
	if l.RowY(0) != 2.5 || l.RowY(9) != 47.5 {
		t.Errorf("RowY = %g, %g", l.RowY(0), l.RowY(9))
	}
	if l.RowOf(2.5) != 0 || l.RowOf(47.6) != 9 {
		t.Error("RowOf wrong")
	}
	if l.RowOf(-5) != 0 || l.RowOf(500) != 9 {
		t.Error("RowOf must clamp")
	}
	if got := l.Utilization(2500); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Utilization = %g, want 0.5", got)
	}
}

func TestPerimeterPads(t *testing.T) {
	t.Parallel()
	l, _ := LayoutWithRows(10, 100, 5)
	pads := l.PerimeterPads(16)
	if len(pads) != 16 {
		t.Fatalf("got %d pads", len(pads))
	}
	for i, p := range pads {
		onEdge := p.X == l.Die.Min.X || p.X == l.Die.Max.X || p.Y == l.Die.Min.Y || p.Y == l.Die.Max.Y
		if !onEdge {
			t.Errorf("pad %d = %v not on boundary", i, p)
		}
	}
	if l.PerimeterPads(0) != nil {
		t.Error("zero pads must return nil")
	}
}

func TestNetlistValidate(t *testing.T) {
	t.Parallel()
	nl := &Netlist{Widths: []float64{1, 2}, Nets: []Net{{Cells: []int{0, 1}}}}
	if err := nl.Validate(); err != nil {
		t.Errorf("valid netlist rejected: %v", err)
	}
	bad := &Netlist{Widths: []float64{1}, Nets: []Net{{Cells: []int{5}}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range cell accepted")
	}
	neg := &Netlist{Widths: []float64{-1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative width accepted")
	}
}

func TestHPWL(t *testing.T) {
	t.Parallel()
	nl := &Netlist{
		Widths: []float64{1, 1, 1},
		Nets: []Net{
			{Cells: []int{0, 1}},
			{Cells: []int{2}, Pads: []geom.Point{geom.Pt(10, 10)}},
			{Cells: []int{0}}, // degree 1: zero length
		},
	}
	p := &Placement{Pos: []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4), geom.Pt(10, 0)}, Row: make([]int, 3)}
	if got := nl.NetHPWL(p, 0); got != 7 {
		t.Errorf("net 0 HPWL = %g, want 7", got)
	}
	if got := nl.NetHPWL(p, 1); got != 10 {
		t.Errorf("net 1 HPWL = %g, want 10", got)
	}
	if got := nl.NetHPWL(p, 2); got != 0 {
		t.Errorf("net 2 HPWL = %g, want 0", got)
	}
	if got := nl.HPWL(p); got != 17 {
		t.Errorf("total = %g, want 17", got)
	}
}

// chainNetlist builds n cells in a chain with uniform width.
func chainNetlist(n int, w float64) *Netlist {
	nl := &Netlist{Widths: make([]float64, n)}
	for i := range nl.Widths {
		nl.Widths[i] = w
	}
	for i := 0; i+1 < n; i++ {
		nl.Nets = append(nl.Nets, Net{Cells: []int{i, i + 1}})
	}
	return nl
}

func TestPlaceChainLegality(t *testing.T) {
	t.Parallel()
	nl := chainNetlist(100, 2)
	layout, _ := LayoutWithRows(10, 40, 5)
	p, err := PlaceNetlist(context.Background(), nl, layout, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every cell inside the die, on a row center.
	d := layout.Die
	die := geom.R(d.Min.X-1e-6, d.Min.Y-1e-6, d.Max.X+1e-6, d.Max.Y+1e-6)
	for c := 0; c < nl.NumCells(); c++ {
		pt := p.Pos[c]
		if !die.Contains(pt) {
			t.Fatalf("cell %d at %v outside die %v", c, pt, layout.Die)
		}
		if math.Abs(pt.Y-layout.RowY(p.Row[c])) > 1e-6 {
			t.Fatalf("cell %d not on its row center", c)
		}
	}
	// No overlaps within a row.
	byRow := map[int][]int{}
	for c := range p.Pos {
		byRow[p.Row[c]] = append(byRow[p.Row[c]], c)
	}
	for r, cells := range byRow {
		for i := 0; i < len(cells); i++ {
			for j := i + 1; j < len(cells); j++ {
				a, b := cells[i], cells[j]
				dist := math.Abs(p.Pos[a].X - p.Pos[b].X)
				if dist < (nl.Widths[a]+nl.Widths[b])/2-1e-6 {
					t.Fatalf("row %d: cells %d,%d overlap (dist %g)", r, a, b, dist)
				}
			}
		}
	}
}

func TestPlaceBeatsRandom(t *testing.T) {
	t.Parallel()
	// A clustered netlist: 8 clusters of 16 cells with dense internal
	// nets and sparse external ones. Min-cut placement must beat a
	// random scatter by a wide margin.
	rng := rand.New(rand.NewSource(3))
	const clusters, per = 8, 16
	n := clusters * per
	nl := &Netlist{Widths: make([]float64, n)}
	for i := range nl.Widths {
		nl.Widths[i] = 2
	}
	for c := 0; c < clusters; c++ {
		base := c * per
		for k := 0; k < 24; k++ {
			a, b := base+rng.Intn(per), base+rng.Intn(per)
			if a != b {
				nl.Nets = append(nl.Nets, Net{Cells: []int{a, b}})
			}
		}
	}
	for k := 0; k < 10; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			nl.Nets = append(nl.Nets, Net{Cells: []int{a, b}})
		}
	}
	layout, _ := LayoutWithRows(16, 40, 5)
	p, err := PlaceNetlist(context.Background(), nl, layout, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	placed := nl.HPWL(p)
	// Random baseline with legal rows.
	randPos := &Placement{Pos: make([]geom.Point, n), Row: make([]int, n)}
	for i := range randPos.Pos {
		r := rng.Intn(layout.NumRows)
		randPos.Pos[i] = geom.Pt(layout.Die.Min.X+rng.Float64()*layout.Die.W(), layout.RowY(r))
		randPos.Row[i] = r
	}
	random := nl.HPWL(randPos)
	if placed > random*0.7 {
		t.Errorf("placement HPWL %g not clearly better than random %g", placed, random)
	}
}

func TestPlaceDeterminism(t *testing.T) {
	t.Parallel()
	nl := chainNetlist(60, 1.5)
	layout, _ := LayoutWithRows(6, 30, 5)
	p1, err := PlaceNetlist(context.Background(), nl, layout, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlaceNetlist(context.Background(), nl, layout, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Pos {
		if p1.Pos[i] != p2.Pos[i] {
			t.Fatalf("cell %d differs between identical runs", i)
		}
	}
}

func TestPlaceWithPads(t *testing.T) {
	t.Parallel()
	// Two cells, each tied to an opposite corner pad; placement must
	// pull them apart toward their pads.
	nl := &Netlist{
		Widths: []float64{2, 2},
		Nets: []Net{
			{Cells: []int{0}, Pads: []geom.Point{geom.Pt(0, 0)}},
			{Cells: []int{1}, Pads: []geom.Point{geom.Pt(100, 50)}},
		},
	}
	// Repeat the pad nets to give them weight against the balance.
	for i := 0; i < 4; i++ {
		nl.Nets = append(nl.Nets, nl.Nets[0], nl.Nets[1])
	}
	layout, _ := LayoutWithRows(10, 100, 5)
	p, err := PlaceNetlist(context.Background(), nl, layout, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d0 := p.Pos[0].Manhattan(geom.Pt(0, 0))
	d1 := p.Pos[1].Manhattan(geom.Pt(100, 50))
	x0 := p.Pos[0].Manhattan(geom.Pt(100, 50))
	x1 := p.Pos[1].Manhattan(geom.Pt(0, 0))
	if d0+d1 > x0+x1 {
		t.Errorf("cells not attracted to their pads: own=%g cross=%g", d0+d1, x0+x1)
	}
}

func TestPlaceEmptyAndTiny(t *testing.T) {
	t.Parallel()
	layout, _ := LayoutWithRows(2, 10, 5)
	p, err := PlaceNetlist(context.Background(), &Netlist{}, layout, Options{})
	if err != nil || len(p.Pos) != 0 {
		t.Errorf("empty netlist: %v %v", p, err)
	}
	one := &Netlist{Widths: []float64{3}}
	p, err = PlaceNetlist(context.Background(), one, layout, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !layout.Die.Contains(p.Pos[0]) {
		t.Error("single cell placed outside die")
	}
}

func TestRunFMReducesCut(t *testing.T) {
	t.Parallel()
	// Two cliques of 6 cells joined by one edge; a bad initial split
	// must be repaired to the 1-cut partition.
	const n = 12
	prob := &fmProblem{width: make([]float64, n)}
	for i := range prob.width {
		prob.width[i] = 1
	}
	addNet := func(a, b int) {
		prob.nets = append(prob.nets, fmNet{cells: []int32{int32(a), int32(b)}})
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			addNet(i, j)
			addNet(i+6, j+6)
		}
	}
	addNet(0, 6)
	prob.linkCells()
	prob.targetLo, prob.targetHi = 5, 7
	// Worst-case interleaved start.
	side := make([]bool, n)
	for i := range side {
		side[i] = i%2 == 1
	}
	res := runFM(prob, side, 10, rand.New(rand.NewSource(1)), new(fmScratch))
	if res.cutNets != 1 {
		t.Errorf("FM cut = %d, want 1", res.cutNets)
	}
	// Balance respected.
	wA := 0.0
	for i, s := range side {
		if !s {
			wA += prob.width[i]
		}
	}
	if wA < prob.targetLo || wA > prob.targetHi {
		t.Errorf("balance violated: wA = %g", wA)
	}
}
