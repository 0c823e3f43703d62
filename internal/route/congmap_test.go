package route

// Value tests for the congestion map (grid.go): every read must reflect
// every usage write before it — the adaptive controller
// (flow.RunAdaptive) steers covering by this map, so a stale read
// would inflate the wrong windows.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/place"
)

// freshCongestionMap recomputes the map edge by edge, the oracle
// CongestionMap is compared against: each edge's ratio is folded into
// the two gcells it joins.
func freshCongestionMap(g *Grid) [][]float64 {
	m := make([][]float64, g.NY)
	for y := range m {
		m[y] = make([]float64, g.NX)
	}
	ratio := func(u, c float64) float64 {
		if c <= 0 {
			if u > 0 {
				return 2
			}
			return 0
		}
		return u / c
	}
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			h := ratio(g.usageH[y][x], g.capH[y][x])
			v := ratio(g.usageV[y][x], g.capV[y][x])
			m[y][x] = math.Max(m[y][x], math.Max(h, v))
			if x+1 < g.NX {
				m[y][x+1] = math.Max(m[y][x+1], h)
			}
			if y+1 < g.NY {
				m[y+1][x] = math.Max(m[y+1][x], v)
			}
		}
	}
	return m
}

func sameMap(t *testing.T, tag string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", tag, len(a), len(b))
	}
	for y := range a {
		for x := range a[y] {
			if a[y][x] != b[y][x] {
				t.Fatalf("%s: cell (%d,%d): %g vs %g", tag, x, y, a[y][x], b[y][x])
			}
		}
	}
}

func TestCongestionMapInvalidatedByUsage(t *testing.T) {
	t.Parallel()
	g, err := NewGrid(testLayout(t), Options{GCellSize: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := edge{x: 4, y: 4, horizontal: false}
	g.addUsage(e, g.capV[4][4]/2)
	before := g.CongestionMap()
	// Overload the edge past capacity; the next read must see it.
	g.addUsage(e, g.capV[4][4])
	after := g.CongestionMap()
	if after[4][4] <= 1 {
		t.Errorf("map is stale: congestion at overloaded cell = %g", after[4][4])
	}
	// The previously returned map is an immutable snapshot of the usage
	// it was computed from, not a view that mutated under the caller.
	if before[4][4] != 0.5 {
		t.Errorf("earlier snapshot mutated: %g, want 0.5", before[4][4])
	}
	// Negative deltas (rip-up removing a path) must show too.
	g.addUsage(e, -g.capV[4][4])
	sameMap(t, "after rip-down", g.CongestionMap(), freshCongestionMap(g))
}

// TestCongestionMapFreshAfterRipup is the end-to-end stale-map
// regression: after a full congested route — initial pattern pass plus
// rip-up/reroute negotiation, the exact writer sequence the adaptive
// loop observes — the map must equal an edge-by-edge recompute.
func TestCongestionMapFreshAfterRipup(t *testing.T) {
	t.Parallel()
	layout := testLayout(t)
	// Many nets crossing the same corridor: enough demand to force the
	// rip-up negotiation to move paths (the TestRipupRepairsHotspot
	// regime).
	var nl place.Netlist
	var pos []geom.Point
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		a := len(pos)
		pos = append(pos, geom.Pt(5, 25+rng.Float64()*2))
		b := len(pos)
		pos = append(pos, geom.Pt(195, 25+rng.Float64()*2))
		nl.Widths = append(nl.Widths, 1, 1)
		nl.Nets = append(nl.Nets, place.Net{Cells: []int{a, b}})
	}
	pl := &place.Placement{Pos: pos, Row: make([]int, len(pos))}
	res, err := RouteNetlist(context.Background(), &nl, pl, layout,
		Options{GCellSize: 10, RipupIterations: 4, CapacityScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sameMap(t, "post-route", res.Grid.CongestionMap(), freshCongestionMap(res.Grid))
}
