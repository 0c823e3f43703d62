package cover

// This file implements the incremental (ECO) side of the shared
// covering prefix: rebuilding a Prefix after a local edit by
// recomputing only the match enumerations the edit can have changed
// (copy-on-write of everything else). CoverDelta then re-solves, in
// the dirtied trees only, the DP vertices the edit reaches.
//
// Invalidation has three granularities. The tree mask decides which
// trees the covering DP re-runs on. A tree rooted at r is clean iff:
//
//  1. its member set is identical to the old tree at r (every member's
//     old root is r, and the old tree had the same size);
//  2. no member was structurally edited, and every member's father
//     pointer is unchanged;
//  3. no member moved, and no fanin of any member moved (fanins are a
//     superset of the match leaves).
//
// A clean tree shares every member's cached matches. Inside a dirty
// tree, the gate cone decides which gates are re-enumerated. A match
// at v binds a pattern of at most H internal levels (the library's
// MaxPatternHeight) over uncut tree edges below v. The matcher reads
// type, fanins, father pointer and tree membership only of gates at
// most H-1 tree edges below v; the cached geometry reads the positions
// of covered gates and of leaves, and the father pointers of leaves,
// which are fanins of covered gates. So call a gate touched when it
// was structurally edited, moved, changed its father pointer, or
// entered or left the forest. A gate's matches can change only if it
// lies within H-1 new-forest father steps above a touched gate or
// above a fanout of one (the start gate included). A touched gate's
// old father is one of its fanouts, so seeding the fanouts covers the
// old forest's chain too. Every other gate of a dirty tree shares
// prev's match slice exactly as a clean tree does.
//
// The solution level is CoverDelta's (cover.go): the cone's gates
// (Rebuild.Reenumerated) seed it, and a re-solved gate whose DP terms
// changed marks the MaxPatternHeight gates above it, transitively. A
// gate outside the cone that nothing below it marked reads the same
// matches and the same child terms as in prev, so it keeps prev's
// solution.

import (
	"context"
	"fmt"
	"math"
	"slices"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/par"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// Rebuild is the outcome of RebuildPrefix: the new prefix plus the
// per-tree dirty mask CoverDelta consumes.
type Rebuild struct {
	Prefix *Prefix
	// Dirty[ti] reports whether tree ti of Prefix is dirty (its cover
	// must be recomputed, and the gates of its edit cone were
	// re-enumerated) or clean (it shares its whole cached enumeration
	// with the previous prefix). Indexed like Prefix trees.
	Dirty []bool
	// DirtyRoots lists the roots of dirty trees in ascending gate-ID
	// order — the mapper's dirty region for downstream incremental
	// routing.
	DirtyRoots []int
	// Reenumerated[g] reports whether gate g's matches were enumerated
	// afresh: g is in a dirty tree and in the edit cone. Every other
	// gate shares prev's slice. Indexed by gate ID; it is the gate mask
	// CoverDelta narrows a dirty tree's DP with.
	Reenumerated []bool
	// ReenumeratedGates counts the Reenumerated gates.
	ReenumeratedGates int
}

// Change is what an edit changed, as RebuildPrefix takes it.
type Change struct {
	// Edited lists the gates whose type or fanins changed.
	Edited []int
	// Moved lists the gates whose position may have changed, and
	// Refathered the gates whose father pointer or forest membership
	// may have changed. Each must include every gate that did;
	// RebuildPrefix drops the ones that did not.
	Moved, Refathered []int
}

// RebuildPrefix builds a Prefix for the edited (dag, forest, pos) by
// copy-on-write against prev: every gate outside the edit cone shares
// prev's per-gate match slice (never reallocated, pointer-identical),
// and the cone's gates in dirty trees are re-enumerated on the edited
// DAG. ch names the gates the edit touched; the dirty trees and the
// cone are derived from them alone, without scanning the design.
// prevForest must be the forest prev was built with (its father
// pointers feed the clean-tree test and the edit cone). The edited DAG
// must have the same vertex count as prev's — ECO edits rewrite gates
// in place, never add or remove them.
//
// A tree of the new forest is dirty iff it holds a touched gate, a
// fanout of a moved gate, or the old father of a touched gate. That is
// the clean-tree test above: a tree that gained a member holds a gate
// whose father or membership changed on the member's new father chain,
// and a tree that lost one holds the old father of the last such gate
// on the member's old chain.
//
// prev is read-only throughout: a shared Prepared can keep serving
// concurrent covers while its successor is rebuilt.
func RebuildPrefix(ctx context.Context, dag *subject.DAG, forest *partition.Forest, lib *library.Library, pos []geom.Point, workers int, prevForest *partition.Forest, prev *Prefix, ch Change) (*Rebuild, error) {
	if prev == nil || prevForest == nil {
		return nil, fmt.Errorf("cover: RebuildPrefix needs a previous prefix and forest")
	}
	if dag.NumGates() != prev.dag.NumGates() {
		return nil, fmt.Errorf("cover: edited DAG has %d gates, previous prefix was built for %d",
			dag.NumGates(), prev.dag.NumGates())
	}
	if len(pos) < dag.NumGates() {
		return nil, fmt.Errorf("cover: %d positions for %d gates", len(pos), dag.NumGates())
	}
	n := dag.NumGates()
	for _, g := range slices.Concat(ch.Edited, ch.Moved, ch.Refathered) {
		if g < 0 || g >= n {
			return nil, fmt.Errorf("cover: edited gate %d out of range [0,%d)", g, n)
		}
	}
	rootOf := forest.RootOf()
	// A gate is touched when it was structurally edited, moved, changed
	// its father pointer, or entered or left the forest.
	var moved []int
	for _, v := range ch.Moved {
		if pos[v] != prev.pos[v] {
			moved = append(moved, v)
		}
	}
	touched := slices.Concat(ch.Edited, moved)
	for _, v := range ch.Refathered {
		if forest.Father[v] != prevForest.Father[v] || (prev.rootOf[v] < 0) != (rootOf[v] < 0) {
			touched = append(touched, v)
		}
	}

	// Copy-on-write: every gate shares the previous enumeration unless
	// it left the forest or is re-enumerated below. The outer slice is
	// fresh per prefix; the per-gate match slices are the immutable
	// payload and are never reallocated.
	p := &Prefix{
		dag:     dag,
		trees:   forest.Trees(),
		rootOf:  rootOf,
		pos:     append([]geom.Point(nil), pos...),
		matches: slices.Clone(prev.matches),
		height:  lib.MaxPatternHeight(),
	}
	treeOf := make(map[int]int, len(p.trees))
	for ti := range p.trees {
		treeOf[p.trees[ti].Root] = ti
	}
	rb := &Rebuild{Prefix: p, Dirty: make([]bool, len(p.trees)), Reenumerated: make([]bool, n)}
	mark := func(v int) {
		if v >= 0 && rootOf[v] >= 0 {
			rb.Dirty[treeOf[rootOf[v]]] = true
		}
	}
	cone := make([]int, n)
	for _, v := range touched {
		if rootOf[v] < 0 {
			p.matches[v] = nil
		}
		mark(v)
		mark(prevForest.Father[v])
		editCone(cone, forest, v, p.height)
		for _, w := range dag.Fanouts(v) {
			editCone(cone, forest, w, p.height)
		}
	}
	for _, v := range moved {
		for _, w := range dag.Fanouts(v) {
			mark(w)
		}
	}
	var dirty []int
	for ti, d := range rb.Dirty {
		if !d {
			continue
		}
		t := &p.trees[ti]
		for _, v := range t.Gates {
			if cone[v] > 0 {
				rb.Reenumerated[v] = true
				rb.ReenumeratedGates++
			}
		}
		dirty = append(dirty, ti)
		rb.DirtyRoots = append(rb.DirtyRoots, t.Root)
	}
	err := par.ForEach(ctx, workers, len(dirty), func(di int) error {
		p.enumerateTree(dag, forest, lib, dirty[di], rb.Reenumerated)
		return nil
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cover: canceled re-enumerating %d dirty trees: %w", len(dirty), cerr)
		}
		return nil, err
	}
	return rb, nil
}

// editCone marks, in cone, the gates within h-1 new-forest father
// steps above v, v included: the gates whose match enumeration a
// touched gate at or below v can have changed (see the file comment
// for why the touched gates and their fanouts are exact seeds). A gate
// is in the cone iff its entry is positive: one more than the most
// father steps a walk through it still had left, so a walk arriving
// with no more stops early, and the marks do not depend on the order
// of the walks.
func editCone(cone []int, forest *partition.Forest, v, h int) {
	for steps := h; v >= 0 && cone[v] < steps; steps-- {
		cone[v] = steps
		v = forest.Father[v]
	}
}

// SharesMatches reports whether prefixes a and b hold the identical
// cached match slice for gate g (pointer identity, not value
// equality). Test hook for the copy-on-write contract: clean trees
// must share, dirty trees must not.
func SharesMatches(a, b *Prefix, g int) bool {
	if g < 0 || g >= len(a.matches) || g >= len(b.matches) {
		return false
	}
	ma, mb := a.matches[g], b.matches[g]
	if len(ma) != len(mb) || len(ma) == 0 {
		return len(ma) == len(mb) && ma == nil && mb == nil
	}
	return &ma[0] == &mb[0]
}

// DiffMatches compares the cached matches of gate g in prefixes a and
// b field by field, floats by their bits, and describes the first
// difference (nil when they are equal). Test hook for the edit-cone
// contract: a rebuilt prefix must hold exactly what a fresh
// BuildPrefix of the edited design holds.
func DiffMatches(a, b *Prefix, g int) error {
	ma, mb := a.matches[g], b.matches[g]
	if len(ma) != len(mb) {
		return fmt.Errorf("gate %d: %d matches vs %d", g, len(ma), len(mb))
	}
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range ma {
		pa, pb := &ma[i], &mb[i]
		switch {
		case pa.m.Cell.Name != pb.m.Cell.Name || pa.m.PatternIndex != pb.m.PatternIndex || pa.m.Root != pb.m.Root:
			return fmt.Errorf("gate %d match %d: %s/%d@%d vs %s/%d@%d", g, i,
				pa.m.Cell.Name, pa.m.PatternIndex, pa.m.Root, pb.m.Cell.Name, pb.m.PatternIndex, pb.m.Root)
		case !slices.Equal(pa.m.Leaves, pb.m.Leaves):
			return fmt.Errorf("gate %d match %d: leaves %v vs %v", g, i, pa.m.Leaves, pb.m.Leaves)
		case !slices.Equal(pa.m.Covered, pb.m.Covered):
			return fmt.Errorf("gate %d match %d: covered %v vs %v", g, i, pa.m.Covered, pb.m.Covered)
		case !bitsEq(pa.com.X, pb.com.X) || !bitsEq(pa.com.Y, pb.com.Y):
			return fmt.Errorf("gate %d match %d: center of mass %v vs %v", g, i, pa.com, pb.com)
		case pa.subLeaf != pb.subLeaf:
			return fmt.Errorf("gate %d match %d: subtree leaves %b vs %b", g, i, pa.subLeaf, pb.subLeaf)
		case !slices.EqualFunc(pa.crossDist, pb.crossDist, bitsEq):
			return fmt.Errorf("gate %d match %d: cross distances %v vs %v", g, i, pa.crossDist, pb.crossDist)
		}
	}
	return nil
}
