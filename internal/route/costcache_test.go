package route

import (
	"context"
	"fmt"
	"testing"

	"casyn/internal/geom"
)

// diffCostCache describes the first edge whose cached cost differs, bit
// for bit, from linkCost of its usage, capacity and history.
func diffCostCache(g *Grid) error {
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if want := linkCost(g.usageH[y][x], g.capH[y][x], g.histH[y][x]); !sameFloat(g.costH[y][x], want) {
				return fmt.Errorf("costH[%d][%d] = %g, linkCost gives %g", y, x, g.costH[y][x], want)
			}
			if want := linkCost(g.usageV[y][x], g.capV[y][x], g.histV[y][x]); !sameFloat(g.costV[y][x], want) {
				return fmt.Errorf("costV[%d][%d] = %g, linkCost gives %g", y, x, g.costV[y][x], want)
			}
		}
	}
	return nil
}

// checkCostCache fails the test when g's cost cache is stale.
func checkCostCache(t *testing.T, g *Grid) {
	t.Helper()
	if err := diffCostCache(g); err != nil {
		t.Fatal(err)
	}
}

// TestCostCacheAfterRoute builds and then routes a congested design,
// so rip-up bumps the history, on a single-die grid and on a two-die
// grid whose boundary edges are derated, and requires the fresh grid's
// and the routed grid's cost caches to match their usage, capacity and
// history on every edge.
func TestCostCacheAfterRoute(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 60, 21)
	mid := (layout.Die.Min.X + layout.Die.Max.X) / 2
	dies := []geom.Rect{
		{Min: layout.Die.Min, Max: geom.Pt(mid, layout.Die.Max.Y)},
		{Min: geom.Pt(mid, layout.Die.Min.Y), Max: layout.Die.Max},
	}
	for _, tc := range []struct {
		name    string
		regions []geom.Rect
	}{{"single-die", nil}, {"two-die", dies}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opts := Options{GCellSize: 10, RipupIterations: 4, CapacityScale: 0.1, Workers: 2,
				Regions: tc.regions, RegionPinBudget: -1}
			fresh, err := NewGrid(layout, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkCostCache(t, fresh)
			res, _, err := RouteNetlistState(context.Background(), nl, pl, layout, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.RipupRounds == 0 {
				t.Fatal("no rip-up round ran; the history was never bumped")
			}
			if tc.regions != nil && res.Grid.CrossRegionCapacity == 0 {
				t.Fatal("the two-die grid derated no boundary edge")
			}
			checkCostCache(t, res.Grid)
		})
	}
}

// TestCostCacheAfterBump overfills one edge of each direction and
// bumps the history, which must re-price exactly those edges: the
// rounds read the cache before any reroute touches a bumped edge.
func TestCostCacheAfterBump(t *testing.T) {
	t.Parallel()
	g, err := NewGrid(testLayout(t), Options{GCellSize: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, v := edge{x: 3, y: 3, horizontal: true}, edge{x: 4, y: 2}
	g.addUsage(h, g.capH[3][3]+2)
	g.addUsage(v, g.capV[2][4]+1)
	before := [2]float64{g.costH[3][3], g.costV[2][4]}
	newRouter(g, Options{}).bumpHistory()
	checkCostCache(t, g)
	if g.costH[3][3] <= before[0] || g.costV[2][4] <= before[1] {
		t.Errorf("bumped edges cost %g and %g, before %v", g.costH[3][3], g.costV[2][4], before)
	}
}
