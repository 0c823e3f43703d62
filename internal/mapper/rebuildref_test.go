package mapper

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/library"
	"casyn/internal/partition"
)

// referenceRebuild is the whole-design scan cover.RebuildPrefix made
// before it took the edit's change set, kept as its oracle. It compares
// every gate's position, father pointer and tree membership between
// the parent and the successor, calls a tree of the successor's forest
// clean iff its member set is the old tree's at the same root and no
// member was edited, moved, re-fathered or has a moved fanin, and marks
// the edit cone by walking up from every touched gate and its fanouts.
// It returns the dirty mask by tree, the dirty roots in tree order and
// the re-enumerated gate mask.
func referenceRebuild(parent *Prepared, e *ECO) ([]bool, []int, []bool) {
	succ := e.Prep
	dag, forest, prevForest := succ.dag, succ.forest, parent.forest
	n := dag.NumGates()
	structEdited := make([]bool, n)
	for _, g := range e.EditedGates {
		structEdited[g] = true
	}
	posChanged := make([]bool, n)
	for g := range posChanged {
		posChanged[g] = succ.in.Pos[g] != parent.in.Pos[g]
	}
	oldSize := make(map[int]int)
	for _, t := range prevForest.Trees() {
		oldSize[t.Root] = len(t.Gates)
	}
	prevRootOf, rootOf := prevForest.RootOf(), forest.RootOf()
	h := parent.opts.Lib.MaxPatternHeight()
	cone := make([]int, n)
	walk := func(v int) {
		for steps := h; v >= 0 && cone[v] < steps; steps-- {
			cone[v] = steps
			v = forest.Father[v]
		}
	}
	for v := 0; v < n; v++ {
		if structEdited[v] || posChanged[v] || forest.Father[v] != prevForest.Father[v] ||
			(prevRootOf[v] < 0) != (rootOf[v] < 0) {
			walk(v)
			for _, w := range dag.Fanouts(v) {
				walk(w)
			}
		}
	}
	trees := forest.Trees()
	dirty := make([]bool, len(trees))
	var roots []int
	reenumerated := make([]bool, n)
	for ti, t := range trees {
		clean := oldSize[t.Root] == len(t.Gates)
		for _, v := range t.Gates {
			if !clean {
				break
			}
			if prevRootOf[v] != t.Root || structEdited[v] || forest.Father[v] != prevForest.Father[v] || posChanged[v] {
				clean = false
				break
			}
			for _, l := range dag.Fanins(v) {
				if posChanged[l] {
					clean = false
					break
				}
			}
		}
		if clean {
			continue
		}
		dirty[ti] = true
		roots = append(roots, t.Root)
		for _, v := range t.Gates {
			reenumerated[v] = cone[v] > 0
		}
	}
	return dirty, roots, reenumerated
}

// TestRebuildPrefixChangeSetMatchesScan chains random edit sets of all
// four kinds through Invalidate — on the example circuits under the
// edit-local PDP re-partition and under a full Dagon re-partition, and
// on a generated SPLA — and checks at every link that the dirty trees,
// dirty roots and re-enumerated gates that RebuildPrefix derives from
// the edit's change set equal the whole-design scan's
// (referenceRebuild).
func TestRebuildPrefixChangeSetMatchesScan(t *testing.T) {
	t.Parallel()
	for _, method := range []partition.Method{partition.PDP, partition.Dagon} {
		for _, pla := range exampleCircuits(t) {
			name := fmt.Sprintf("%v/%s", method, strings.TrimSuffix(filepath.Base(pla), ".pla"))
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				d, in := placedCircuit(t, pla)
				prep, err := Prepare(context.Background(), d, in, Options{Lib: library.Default(), Method: method})
				if err != nil {
					t.Fatal(err)
				}
				checkRebuildChain(t, prep, 12, 4)
			})
		}
	}
	t.Run("spla", func(t *testing.T) {
		t.Parallel()
		checkRebuildChain(t, generatedPrepared(t, bench.SPLA, 0.1, 2), 2, 30)
	})
}

// checkRebuildChain runs seeds chains of links edit sets from prep and
// compares every link with referenceRebuild.
func checkRebuildChain(t *testing.T, prep *Prepared, seeds int64, links int) {
	t.Helper()
	ctx := context.Background()
	kinds := make(map[EditKind]int)
	dirtyLinks := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := prep
		for link := 0; link < links; link++ {
			edits := RandomEdits(cur, rng, 1+rng.Intn(3))
			for _, e := range edits.Edits {
				kinds[e.Kind]++
			}
			eco, err := cur.Invalidate(ctx, edits)
			if err != nil {
				t.Fatalf("seed %d link %d: %v", seed, link, err)
			}
			rb := eco.rebuild
			dirty, roots, reen := referenceRebuild(cur, eco)
			if !slices.Equal(rb.Dirty, dirty) {
				t.Fatalf("seed %d link %d: dirty trees %v, scan %v", seed, link, rb.Dirty, dirty)
			}
			if !slices.Equal(rb.DirtyRoots, roots) {
				t.Fatalf("seed %d link %d: dirty roots %v, scan %v", seed, link, rb.DirtyRoots, roots)
			}
			if !slices.Equal(rb.Reenumerated, reen) {
				t.Fatalf("seed %d link %d: re-enumerated gates differ from the scan's", seed, link)
			}
			if len(roots) > 0 {
				dirtyLinks++
			}
			cur = eco.Prep
		}
	}
	for _, k := range []EditKind{EditGateFunc, EditReconnect, EditNudge, EditSwap} {
		if kinds[k] == 0 {
			t.Errorf("no edit of kind %v was drawn", k)
		}
	}
	if dirtyLinks == 0 {
		t.Error("no link dirtied a tree; the comparison was not exercised")
	}
}
