package route

import (
	"math/rand"
	"testing"
)

// partitionRegions is a fresh plan's partition of the failing set.
func partitionRegions(fail []int, terr []gridRect, bounds gridRect) regionPlan {
	var plan regionPlan
	plan.partition(fail, terr, bounds)
	return plan
}

func rectsDisjoint(a, b gridRect) bool {
	return a.X1 < b.X0 || b.X1 < a.X0 || a.Y1 < b.Y0 || b.Y1 < a.Y0
}

// checkPlan asserts the structural invariants every region plan must
// satisfy: each failing segment lands in exactly one region or one
// boundary bucket, every territory is contained in its region's (or
// bucket's node) rectangle, region rectangles are pairwise
// cell-disjoint, and so are the node rectangles within one boundary
// level. Cell-disjointness implies edge-disjointness on the grid.
func checkPlan(t *testing.T, plan regionPlan, fail []int, terr []gridRect) {
	t.Helper()
	terrOf := make(map[int]gridRect, len(fail))
	for k, it := range fail {
		terrOf[it] = terr[k]
	}
	placed := map[int]int{}
	for ri, items := range plan.Regions {
		for _, it := range items {
			placed[it]++
			if !plan.Rects[ri].contains(terrOf[it]) {
				t.Errorf("region %d rect %+v does not contain territory %+v of segment %d",
					ri, plan.Rects[ri], terrOf[it], it)
			}
		}
	}
	for d, level := range plan.BoundaryLevels {
		for bi, bucket := range level {
			for _, it := range bucket {
				placed[it]++
				if !plan.BoundaryRects[d][bi].contains(terrOf[it]) {
					t.Errorf("boundary bucket d=%d #%d rect %+v does not contain territory %+v of segment %d",
						d, bi, plan.BoundaryRects[d][bi], terrOf[it], it)
				}
			}
		}
	}
	for _, it := range fail {
		if placed[it] != 1 {
			t.Errorf("segment %d placed %d times, want exactly once", it, placed[it])
		}
	}
	if len(placed) != len(fail) {
		t.Errorf("plan places %d distinct segments, want %d", len(placed), len(fail))
	}
	for i := range plan.Rects {
		for j := i + 1; j < len(plan.Rects); j++ {
			if !rectsDisjoint(plan.Rects[i], plan.Rects[j]) {
				t.Errorf("regions %d and %d overlap: %+v vs %+v",
					i, j, plan.Rects[i], plan.Rects[j])
			}
		}
	}
	for d, rects := range plan.BoundaryRects {
		for i := range rects {
			for j := i + 1; j < len(rects); j++ {
				if !rectsDisjoint(rects[i], rects[j]) {
					t.Errorf("level-%d buckets %d and %d overlap: %+v vs %+v",
						d, i, j, rects[i], rects[j])
				}
			}
		}
	}
}

func TestPartitionRegionsInvariants(t *testing.T) {
	t.Parallel()
	bounds := gridRect{X0: 0, Y0: 0, X1: 199, Y1: 149}
	rng := rand.New(rand.NewSource(41))
	randTerr := func(n int, span int) ([]int, []gridRect) {
		fail := make([]int, n)
		terr := make([]gridRect, n)
		for i := range fail {
			fail[i] = i
			x := rng.Intn(bounds.X1 - span)
			y := rng.Intn(bounds.Y1 - span)
			terr[i] = gridRect{
				X0: x, Y0: y,
				X1: clampInt(x+1+rng.Intn(span), 0, bounds.X1),
				Y1: clampInt(y+1+rng.Intn(span), 0, bounds.Y1),
			}
		}
		return fail, terr
	}

	t.Run("scattered", func(t *testing.T) {
		t.Parallel()
		fail, terr := randTerr(600, 8)
		plan := partitionRegions(append([]int(nil), fail...), append([]gridRect(nil), terr...), bounds)
		checkPlan(t, plan, fail, terr)
		if len(plan.Regions) < 2 {
			t.Errorf("scattered load split into %d regions, want parallelism", len(plan.Regions))
		}
	})

	t.Run("clustered", func(t *testing.T) {
		t.Parallel()
		// Three tight blobs: the partitioner must isolate them rather
		// than strand them all in boundary buckets.
		var fail []int
		var terr []gridRect
		for _, c := range [][2]int{{30, 30}, {150, 40}, {80, 120}} {
			for i := 0; i < 120; i++ {
				x := clampInt(c[0]+rng.Intn(13)-6, 0, bounds.X1-3)
				y := clampInt(c[1]+rng.Intn(13)-6, 0, bounds.Y1-3)
				fail = append(fail, len(fail))
				terr = append(terr, gridRect{X0: x, Y0: y, X1: x + 3, Y1: y + 3})
			}
		}
		plan := partitionRegions(append([]int(nil), fail...), append([]gridRect(nil), terr...), bounds)
		checkPlan(t, plan, fail, terr)
		if n := plan.boundaryCount(); 2*n > len(fail) {
			t.Errorf("boundary holds %d of %d segments; separated blobs should mostly land in regions", n, len(fail))
		}
	})

	t.Run("one-blob", func(t *testing.T) {
		t.Parallel()
		// Territories that all overlap one point: no admissible cut
		// separates them, so the plan must be a single region (the
		// blob-leaf rule), not a boundary bucket.
		var fail []int
		var terr []gridRect
		for i := 0; i < 200; i++ {
			fail = append(fail, i)
			terr = append(terr, gridRect{X0: 90, Y0: 70, X1: 110, Y1: 85})
		}
		plan := partitionRegions(append([]int(nil), fail...), append([]gridRect(nil), terr...), bounds)
		checkPlan(t, plan, fail, terr)
		if len(plan.Regions) != 1 || plan.boundaryCount() != 0 {
			t.Errorf("identical territories gave %d regions + %d boundary, want one blob region",
				len(plan.Regions), plan.boundaryCount())
		}
	})

	t.Run("small-leaf", func(t *testing.T) {
		t.Parallel()
		small := gridRect{X0: 0, Y0: 0, X1: 2*minRegionSpan - 2, Y1: 2*minRegionSpan - 2}
		fail, terr := randTerr(100, 3)
		for i := range terr {
			terr[i] = gridRect{
				X0: terr[i].X0 % minRegionSpan, Y0: terr[i].Y0 % minRegionSpan,
				X1: terr[i].X0%minRegionSpan + 1, Y1: terr[i].Y0%minRegionSpan + 1,
			}
		}
		plan := partitionRegions(append([]int(nil), fail...), append([]gridRect(nil), terr...), small)
		checkPlan(t, plan, fail, terr)
		if len(plan.Regions) != 1 {
			t.Errorf("rect below the cut span split into %d regions, want leaf", len(plan.Regions))
		}
	})
}

func TestPartitionRegionsDeterministic(t *testing.T) {
	t.Parallel()
	bounds := gridRect{X0: 0, Y0: 0, X1: 255, Y1: 255}
	rng := rand.New(rand.NewSource(17))
	n := 500
	fail := make([]int, n)
	terr := make([]gridRect, n)
	for i := range fail {
		fail[i] = i * 3
		x, y := rng.Intn(240), rng.Intn(240)
		terr[i] = gridRect{X0: x, Y0: y, X1: x + rng.Intn(12), Y1: y + rng.Intn(12)}
	}
	mk := func() regionPlan {
		return partitionRegions(append([]int(nil), fail...), append([]gridRect(nil), terr...), bounds)
	}
	a, b := mk(), mk()
	if len(a.Regions) != len(b.Regions) || len(a.BoundaryLevels) != len(b.BoundaryLevels) {
		t.Fatalf("plan shape diverged: %d/%d regions, %d/%d levels",
			len(a.Regions), len(b.Regions), len(a.BoundaryLevels), len(b.BoundaryLevels))
	}
	for ri := range a.Regions {
		if a.Rects[ri] != b.Rects[ri] || len(a.Regions[ri]) != len(b.Regions[ri]) {
			t.Fatalf("region %d diverged", ri)
		}
		for k := range a.Regions[ri] {
			if a.Regions[ri][k] != b.Regions[ri][k] {
				t.Fatalf("region %d item %d diverged", ri, k)
			}
		}
	}
}
