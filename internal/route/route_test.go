package route

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/place"
)

func testLayout(t *testing.T) place.Layout {
	t.Helper()
	l, err := place.LayoutWithRows(20, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// maxCongestion is the worst usage/capacity ratio on any edge.
func maxCongestion(g *Grid) float64 {
	worst := 0.0
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if g.capH[y][x] > 0 {
				worst = math.Max(worst, g.usageH[y][x]/g.capH[y][x])
			}
			if g.capV[y][x] > 0 {
				worst = math.Max(worst, g.usageV[y][x]/g.capV[y][x])
			}
		}
	}
	return worst
}

func TestNewGridGeometry(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	g, err := NewGrid(layout, Options{GCellSize: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NX != 20 || g.NY != 10 {
		t.Fatalf("grid %dx%d, want 20x10", g.NX, g.NY)
	}
	x, y := g.GCellOf(geom.Pt(15, 15))
	if x != 1 || y != 1 {
		t.Errorf("GCellOf = %d,%d", x, y)
	}
	// Clamping.
	x, y = g.GCellOf(geom.Pt(-5, 1e6))
	if x != 0 || y != g.NY-1 {
		t.Errorf("GCellOf clamp = %d,%d", x, y)
	}
	c := g.Center(0, 0)
	if c != geom.Pt(5, 5) {
		t.Errorf("Center = %v", c)
	}
}

func TestGridCapacityDerate(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	full, err := NewGrid(layout, Options{GCellSize: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	density := make([][]float64, full.NY)
	for y := range density {
		density[y] = make([]float64, full.NX)
		for x := range density[y] {
			density[y][x] = 1.0
		}
	}
	dense, err := NewGrid(layout, Options{GCellSize: 10}, density)
	if err != nil {
		t.Fatal(err)
	}
	if dense.capH[0][0] >= full.capH[0][0] {
		t.Errorf("density did not derate capacity: %g vs %g", dense.capH[0][0], full.capH[0][0])
	}
	if dense.capH[0][0] <= 0 {
		t.Error("derate must not zero out capacity at default penalty")
	}
}

func TestOverflowAccounting(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	g, err := NewGrid(layout, Options{GCellSize: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := edge{x: 3, y: 3, horizontal: true}
	cap0 := g.capH[3][3]
	g.addUsage(e, cap0+5)
	if got := g.TotalOverflow(); got != 5 {
		t.Errorf("TotalOverflow = %d, want 5", got)
	}
	if ov := g.overflowOf(e); math.Abs(ov-5) > 1e-9 {
		t.Errorf("overflowOf = %g", ov)
	}
	if mc := maxCongestion(g); mc <= 1 {
		t.Errorf("maxCongestion = %g, want > 1", mc)
	}
	cm := g.CongestionMap()
	if cm[3][3] <= 1 {
		t.Errorf("congestion map at hotspot = %g", cm[3][3])
	}
	if cm[0][0] != 0 {
		t.Errorf("congestion map at idle cell = %g", cm[0][0])
	}
}

// simple two-cell netlist with a known net.
func twoCellNetlist(p1, p2 geom.Point) (*place.Netlist, *place.Placement) {
	nl := &place.Netlist{
		Widths: []float64{2, 2},
		Nets:   []place.Net{{Cells: []int{0, 1}}},
	}
	pl := &place.Placement{Pos: []geom.Point{p1, p2}, Row: []int{0, 0}}
	return nl, pl
}

func TestRouteSingleNet(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	nl, pl := twoCellNetlist(geom.Pt(5, 5), geom.Pt(105, 55))
	res, err := RouteNetlist(context.Background(), nl, pl, layout, Options{GCellSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Routable() {
		t.Errorf("single net unroutable: %d failed connections", res.FailedConnections)
	}
	// Manhattan distance is 150 µm; the routed length must match the
	// gcell-quantized distance (10 edges horizontal + 5 vertical).
	if math.Abs(res.NetLength[0]-150) > 1e-6 {
		t.Errorf("routed length = %g, want 150", res.NetLength[0])
	}
	if res.WireLength != res.NetLength[0] {
		t.Error("total wirelength mismatch")
	}
}

func TestRouteSameGCellNetIsFree(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	nl, pl := twoCellNetlist(geom.Pt(5, 5), geom.Pt(6, 6))
	res, err := RouteNetlist(context.Background(), nl, pl, layout, Options{GCellSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.WireLength != 0 || !res.Routable() {
		t.Errorf("intra-gcell net: len=%g failed connections=%d", res.WireLength, res.FailedConnections)
	}
}

func TestRouteMultiPinNetUsesMST(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	nl := &place.Netlist{
		Widths: []float64{1, 1, 1},
		Nets:   []place.Net{{Cells: []int{0, 1, 2}}},
	}
	pl := &place.Placement{
		Pos: []geom.Point{geom.Pt(5, 5), geom.Pt(55, 5), geom.Pt(105, 5)},
		Row: []int{0, 0, 0},
	}
	res, err := RouteNetlist(context.Background(), nl, pl, layout, Options{GCellSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// MST connects 0-1-2 along the row: 100 µm, not 150 (star via
	// both pairs from 0 would double-count).
	if math.Abs(res.NetLength[0]-100) > 1e-6 {
		t.Errorf("MST length = %g, want 100", res.NetLength[0])
	}
}

func TestRouteWithPads(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	nl := &place.Netlist{
		Widths: []float64{1},
		Nets:   []place.Net{{Cells: []int{0}, Pads: []geom.Point{geom.Pt(0, 0)}}},
	}
	pl := &place.Placement{Pos: []geom.Point{geom.Pt(95, 45)}, Row: []int{0}}
	res, err := RouteNetlist(context.Background(), nl, pl, layout, Options{GCellSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetLength[0] <= 0 {
		t.Error("pad net not routed")
	}
}

func TestRipupRepairsHotspot(t *testing.T) {
	t.Parallel()
	// Saturate a narrow corridor: many parallel nets crossing the
	// same column. With rip-up they must spread; the router should
	// not leave avoidable overflow when plenty of capacity exists in
	// neighboring rows.
	layout := testLayout(t)
	var nl place.Netlist
	var pos []geom.Point
	rng := rand.New(rand.NewSource(2))
	nNets := 60
	for i := 0; i < nNets; i++ {
		a := len(pos)
		// All nets want to cross the die horizontally at y≈25.
		pos = append(pos, geom.Pt(5, 25+rng.Float64()*2))
		b := len(pos)
		pos = append(pos, geom.Pt(195, 25+rng.Float64()*2))
		nl.Widths = append(nl.Widths, 1, 1)
		nl.Nets = append(nl.Nets, place.Net{Cells: []int{a, b}})
	}
	pl := &place.Placement{Pos: pos, Row: make([]int, len(pos))}
	noRipup, err := RouteNetlist(context.Background(), &nl, pl, layout, Options{GCellSize: 10, RipupIterations: -1})
	if err != nil {
		t.Fatal(err)
	}
	withRipup, err := RouteNetlist(context.Background(), &nl, pl, layout, Options{GCellSize: 10, RipupIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if withRipup.Overflow > noRipup.Overflow {
		t.Errorf("rip-up increased overflow: %d -> %d", noRipup.Overflow, withRipup.Overflow)
	}
	t.Logf("overflow: initial %d, after rip-up %d", noRipup.Overflow, withRipup.Overflow)
}

func TestRipupIterationsContract(t *testing.T) {
	t.Parallel()
	// A negative RipupIterations turns rip-up off: it normalizes to
	// zero negotiation rounds. Zero means the default of 3.
	layout := testLayout(t)
	o := Options{RipupIterations: -1}
	o.defaults(layout)
	if o.RipupIterations != 0 {
		t.Errorf("normalized %+v: want RipupIterations=0", o)
	}
	var def Options
	def.defaults(layout)
	if def.RipupIterations != 3 {
		t.Errorf("default options %+v: want rip-up enabled with 3 iterations", def)
	}
}

func TestRouterErrors(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	nl, _ := twoCellNetlist(geom.Pt(0, 0), geom.Pt(1, 1))
	badPl := &place.Placement{Pos: []geom.Point{geom.Pt(0, 0)}}
	if _, err := RouteNetlist(context.Background(), nl, badPl, layout, Options{}); err == nil {
		t.Error("mismatched placement accepted")
	}
}

func TestCongestionGrowsWithDemand(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	build := func(n int) (*place.Netlist, *place.Placement) {
		var nl place.Netlist
		var pos []geom.Point
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < n; i++ {
			a := len(pos)
			pos = append(pos, geom.Pt(rng.Float64()*200, rng.Float64()*100))
			b := len(pos)
			pos = append(pos, geom.Pt(rng.Float64()*200, rng.Float64()*100))
			nl.Widths = append(nl.Widths, 1, 1)
			nl.Nets = append(nl.Nets, place.Net{Cells: []int{a, b}})
		}
		return &nl, &place.Placement{Pos: pos, Row: make([]int, len(pos))}
	}
	nlLo, plLo := build(30)
	nlHi, plHi := build(600)
	lo, err := RouteNetlist(context.Background(), nlLo, plLo, layout, Options{GCellSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RouteNetlist(context.Background(), nlHi, plHi, layout, Options{GCellSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if maxCongestion(hi.Grid) <= maxCongestion(lo.Grid) {
		t.Errorf("congestion did not grow with demand: %g vs %g", maxCongestion(lo.Grid), maxCongestion(hi.Grid))
	}
}

func TestRouteWorkersDeterminism(t *testing.T) {
	t.Parallel()
	// The parallel first pass works in fixed batches against an
	// immutable congestion snapshot, so every Workers value must give
	// the same result — including rip-up, which starts from the same
	// initial usage.
	layout := testLayout(t)
	var nl place.Netlist
	var pos []geom.Point
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		a := len(pos)
		pos = append(pos, geom.Pt(rng.Float64()*200, rng.Float64()*100))
		b := len(pos)
		pos = append(pos, geom.Pt(rng.Float64()*200, rng.Float64()*100))
		nl.Widths = append(nl.Widths, 1, 1)
		nl.Nets = append(nl.Nets, place.Net{Cells: []int{a, b}})
	}
	pl := &place.Placement{Pos: pos, Row: make([]int, len(pos))}
	route := func(workers int) *Result {
		t.Helper()
		res, err := RouteNetlist(context.Background(), &nl, pl, layout,
			Options{GCellSize: 10, RipupIterations: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := route(1)
	for _, w := range []int{0, 2, 8} {
		got := route(w)
		if got.Overflow != ref.Overflow ||
			got.OverflowEdges != ref.OverflowEdges ||
			got.FailedConnections != ref.FailedConnections ||
			got.WireLength != ref.WireLength ||
			maxCongestion(got.Grid) != maxCongestion(ref.Grid) {
			t.Errorf("workers=%d diverged: %+v vs %+v", w, got, ref)
		}
		for i := range ref.NetLength {
			if got.NetLength[i] != ref.NetLength[i] {
				t.Fatalf("workers=%d: net %d length %g != %g", w, i, got.NetLength[i], ref.NetLength[i])
			}
		}
	}
}
