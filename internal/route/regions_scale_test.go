package route

import (
	"testing"

	"casyn/internal/bench"
)

// TestPartitionRegionsInvariantsPaperScale runs the region-plan
// structural invariants at the paper's largest routing point — the
// 1M-gate synthetic placed netlist — and is skipped in -short mode.
// The failing set a negotiation round hands the partitioner is the
// congested subset, not every segment, so the test reconstructs one
// the same way congestion forms: it accumulates each segment's
// territory into a per-gcell wiring-demand map and fails exactly the
// segments whose territory touches the most oversubscribed gcells.
func TestPartitionRegionsInvariantsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-gate partitioner invariants skipped in short mode")
	}
	nl, pl, layout, err := bench.RouteSpecAt(1_000_000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	opts.defaults(layout)
	density, err := cellDensity(nl, pl, layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(layout, opts, density)
	if err != nil {
		t.Fatal(err)
	}

	var segIdx []int
	var terrAll []gridRect
	var ptsBuf [][2]int
	for ni := range nl.Nets {
		pts := terminalCells(g, nl, pl, ni, ptsBuf[:0])
		ptsBuf = pts
		if len(pts) < 2 {
			continue
		}
		for _, pr := range mstPairs(pts) {
			segIdx = append(segIdx, len(segIdx))
			terrAll = append(terrAll, g.territory(pr[0], pr[1]))
		}
	}
	if len(segIdx) < 1_000_000 {
		t.Fatalf("1M-gate design decomposed into only %d segments", len(segIdx))
	}

	// Per-gcell demand: how many territories cover each cell, via a 2D
	// difference array. The top slice of cells is where a real first
	// pass overflows.
	demand := make([][]int64, g.NY+1)
	for y := range demand {
		demand[y] = make([]int64, g.NX+1)
	}
	for _, r := range terrAll {
		demand[r.Y0][r.X0]++
		demand[r.Y0][r.X1+1]--
		demand[r.Y1+1][r.X0]--
		demand[r.Y1+1][r.X1+1]++
	}
	var total int64
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if y > 0 {
				demand[y][x] += demand[y-1][x]
			}
			if x > 0 {
				demand[y][x] += demand[y][x-1]
			}
			if y > 0 && x > 0 {
				demand[y][x] -= demand[y-1][x-1]
			}
			total += demand[y][x]
		}
	}
	// Hot cells: demand well above the die average — the hotspot
	// centers plus the oversubscribed spread around them, like a first
	// pass's overflow map. hot2D's prefix sums answer "does this
	// territory touch a hot cell" in O(1) per segment.
	hotThreshold := 2 * total / int64(g.NX*g.NY)
	hot2D := make([][]int64, g.NY+1)
	for y := range hot2D {
		hot2D[y] = make([]int64, g.NX+1)
	}
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			v := int64(0)
			if demand[y][x] >= hotThreshold {
				v = 1
			}
			hot2D[y+1][x+1] = v + hot2D[y][x+1] + hot2D[y+1][x] - hot2D[y][x]
		}
	}
	touchesHot := func(r gridRect) bool {
		return hot2D[r.Y1+1][r.X1+1]-hot2D[r.Y0][r.X1+1]-hot2D[r.Y1+1][r.X0]+hot2D[r.Y0][r.X0] > 0
	}
	// A real round's failing set is the hotspot pile-up plus scattered
	// casualties across the die (global nets, secondary overflow); the
	// deterministic 1-in-64 sample stands in for the scattered part.
	var fail []int
	var terr []gridRect
	for i, r := range terrAll {
		if touchesHot(r) || i%64 == 0 {
			fail = append(fail, segIdx[i])
			terr = append(terr, r)
		}
	}
	if len(fail) < 10_000 || len(fail) > len(segIdx)/2 {
		t.Fatalf("hotspot failing set has %d of %d segments; demand threshold is miscalibrated", len(fail), len(segIdx))
	}

	all := gridRect{X0: 0, Y0: 0, X1: g.NX - 1, Y1: g.NY - 1}
	plan := partitionRegions(append([]int(nil), fail...), append([]gridRect(nil), terr...), all)
	checkPlan(t, plan, fail, terr)

	// The whole point of the partitioner at this scale is parallelism:
	// a paper-scale failing set must split into many independent
	// regions, and the serialized boundary share must stay a fraction.
	if plan.regionCount() < 16 {
		t.Errorf("failing set of %d split into %d regions, want real parallelism", len(fail), plan.regionCount())
	}
	if n := plan.boundaryCount(); 2*n > len(fail) {
		t.Errorf("boundary buckets hold %d of %d segments; most work should land in regions", n, len(fail))
	}
}
