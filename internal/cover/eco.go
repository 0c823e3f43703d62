package cover

// This file implements the incremental (ECO) side of the shared
// covering prefix: rebuilding a Prefix after a local edit by
// recomputing only the dirtied partition trees' match enumerations
// (copy-on-write of everything else), and re-running the covering DP
// on just those trees against a previous same-K cover.
//
// A new tree may reuse a previous tree's cached enumeration exactly
// when nothing the matcher or the cached geometry reads has changed.
// The matcher reads only the tree members' gate records (type and
// fanins), the father pointers of members, and tree membership; match
// leaves bind any gate without inspecting it. The cached geometry
// reads the positions of members (centers of mass) and of leaves
// (cross-reference distances), and the father pointers of in-tree
// leaves (which are members). Hence a tree rooted at r is clean iff:
//
//  1. its member set is identical to the old tree at r (every member's
//     old root is r, and the old tree had the same size);
//  2. no member was structurally edited, and every member's father
//     pointer is unchanged;
//  3. no member moved, and no fanin of any member moved (fanins are a
//     superset of the match leaves).
//
// Everything else — including every gate the edit touched, every gate
// whose father flipped because a nearest-consumer distance changed,
// and every tree whose membership shifted — is dirty and re-enumerated
// from scratch on the edited DAG.

import (
	"context"
	"fmt"

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
	// Dirty[ti] reports whether tree ti of Prefix was re-enumerated
	// (dirty) or shares its cached enumeration with the previous prefix
	// (clean). Indexed like Prefix trees.
	Dirty []bool
	// DirtyRoots lists the roots of re-enumerated trees in ascending
	// gate-ID order — the mapper's dirty region for downstream
	// incremental routing.
	DirtyRoots []int
}

// RebuildPrefix builds a Prefix for the edited (dag, forest, pos) by
// copy-on-write against prev: clean trees share prev's per-gate match
// slices (never reallocated, pointer-identical), dirty trees are
// re-enumerated on the edited DAG. editedGates lists the gate IDs
// whose type or fanins changed; position changes are detected by
// comparing pos against prev's frozen snapshot. prevForest must be the
// forest prev was built with (the father pointers feed the clean-tree
// test). The edited DAG must have the same vertex count as prev's —
// ECO edits rewrite gates in place, never add or remove them.
//
// prev is read-only throughout: a shared Prepared can keep serving
// concurrent covers while its successor is rebuilt.
func RebuildPrefix(ctx context.Context, dag *subject.DAG, forest *partition.Forest, lib *library.Library, pos []geom.Point, workers int, prevForest *partition.Forest, prev *Prefix, editedGates []int) (*Rebuild, error) {
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
	structEdited := make([]bool, n)
	for _, g := range editedGates {
		if g < 0 || g >= n {
			return nil, fmt.Errorf("cover: edited gate %d out of range [0,%d)", g, n)
		}
		structEdited[g] = true
	}
	posChanged := make([]bool, n)
	for i := 0; i < n; i++ {
		if pos[i] != prev.pos[i] {
			posChanged[i] = true
		}
	}
	// Old tree sizes by root: membership equality is "every member's
	// old root is r" plus a size match.
	oldSize := make(map[int]int, len(prev.trees))
	for ti := range prev.trees {
		oldSize[prev.trees[ti].Root] = len(prev.trees[ti].Gates)
	}

	p := &Prefix{
		dag:     dag,
		trees:   forest.Trees(dag),
		rootOf:  forest.RootOf(dag),
		pos:     append([]geom.Point(nil), pos...),
		matches: make([][]preparedMatch, n),
	}
	rb := &Rebuild{Prefix: p, Dirty: make([]bool, len(p.trees))}
	var dirty []int
	for ti := range p.trees {
		t := &p.trees[ti]
		clean := oldSize[t.Root] == len(t.Gates)
		for _, v := range t.Gates {
			if !clean {
				break
			}
			if prev.rootOf[v] != t.Root || structEdited[v] ||
				forest.Father[v] != prevForest.Father[v] || posChanged[v] {
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
			// Copy-on-write: share the previous enumeration. The outer
			// slice is fresh per prefix; the per-gate match slices are
			// the immutable payload and are never reallocated.
			for _, v := range t.Gates {
				p.matches[v] = prev.matches[v]
			}
			continue
		}
		rb.Dirty[ti] = true
		dirty = append(dirty, ti)
		rb.DirtyRoots = append(rb.DirtyRoots, t.Root)
	}
	dag.PrecomputeFanouts() // no lazy rebuild race under the fan-out
	err := par.ForEach(ctx, workers, len(dirty), func(di int) error {
		p.enumerateTree(dag, forest, lib, dirty[di])
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
