package route

import (
	"math/rand"
	"slices"
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
// satisfy, read off the node tree:
//   - the nodes are in pre-order (a parent precedes its children) and
//     each node's child count is its number of children;
//   - each failing segment sits in exactly one node's list (a leaf
//     region or a cut node's bucket), and every list is ascending;
//   - every territory lies inside its node's rectangle;
//   - sibling rectangles are pairwise cell-disjoint and lie inside
//     their parent's, so nodes that are not ancestor and descendant
//     are edge-disjoint;
//   - counts, which negotiate records as route.regions and
//     route.boundary_nets, returns the tree's leaf count and bucket
//     sizes.
func checkPlan(t *testing.T, plan regionPlan, fail []int, terr []gridRect) {
	t.Helper()
	terrOf := make(map[int]gridRect, len(fail))
	for k, it := range fail {
		terrOf[it] = terr[k]
	}
	nodes := plan.nodes
	children := make([][]int, len(nodes))
	roots := 0
	for i, nd := range nodes {
		if nd.parent < 0 {
			roots++
			continue
		}
		if int(nd.parent) >= i {
			t.Fatalf("node %d has parent %d, want an earlier node", i, nd.parent)
		}
		children[nd.parent] = append(children[nd.parent], i)
	}
	if len(nodes) > 0 && roots != 1 {
		t.Errorf("plan has %d roots, want 1", roots)
	}
	placed := map[int]int{}
	leaves, bucketed := 0, 0
	for i, nd := range nodes {
		if int(nd.children) != len(children[i]) {
			t.Errorf("node %d records %d children, has %d", i, nd.children, len(children[i]))
		}
		if len(children[i]) == 0 {
			leaves++
		} else {
			bucketed += len(nd.list)
		}
		for k, it := range nd.list {
			placed[it]++
			if k > 0 && nd.list[k-1] >= it {
				t.Errorf("node %d list not ascending at %d: %d then %d", i, k, nd.list[k-1], it)
			}
			if !nd.rect.contains(terrOf[it]) {
				t.Errorf("node %d rect %+v does not contain territory %+v of segment %d",
					i, nd.rect, terrOf[it], it)
			}
		}
		for a, ci := range children[i] {
			if !nd.rect.contains(nodes[ci].rect) {
				t.Errorf("node %d rect %+v does not contain child %d's %+v", i, nd.rect, ci, nodes[ci].rect)
			}
			for _, cj := range children[i][a+1:] {
				if !rectsDisjoint(nodes[ci].rect, nodes[cj].rect) {
					t.Errorf("siblings %d and %d overlap: %+v vs %+v", ci, cj, nodes[ci].rect, nodes[cj].rect)
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
	if r, b := plan.counts(); r != leaves || b != bucketed {
		t.Errorf("counts() = %d regions, %d boundary; the tree has %d leaves, %d bucketed", r, b, leaves, bucketed)
	}
}

// regionCount is the plan's leaf count.
func (p *regionPlan) regionCount() int {
	n, _ := p.counts()
	return n
}

// boundaryCount is the plan's total straddler count.
func (p *regionPlan) boundaryCount() int {
	_, n := p.counts()
	return n
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
		if plan.regionCount() < 2 {
			t.Errorf("scattered load split into %d regions, want parallelism", plan.regionCount())
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
		if plan.regionCount() != 1 || plan.boundaryCount() != 0 {
			t.Errorf("identical territories gave %d regions + %d boundary, want one blob region",
				plan.regionCount(), plan.boundaryCount())
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
		if plan.regionCount() != 1 {
			t.Errorf("rect below the cut span split into %d regions, want leaf", plan.regionCount())
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
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("plan shape diverged: %d/%d nodes", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		x, y := &a.nodes[i], &b.nodes[i]
		if x.parent != y.parent || x.children != y.children || x.rect != y.rect || !slices.Equal(x.list, y.list) {
			t.Fatalf("node %d diverged: %+v vs %+v", i, *x, *y)
		}
	}
	checkPlan(t, a, fail, terr)
	if a.regionCount() < 2 || a.boundaryCount() == 0 {
		t.Errorf("plan has %d regions and %d straddlers, want a tree with buckets", a.regionCount(), a.boundaryCount())
	}
}
