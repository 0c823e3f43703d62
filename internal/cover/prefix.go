package cover

import (
	"context"
	"fmt"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/match"
	"casyn/internal/par"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// preparedMatch is one cached match together with the K-invariant
// terms of its DP cost: every quantity of Eqs. 1–5 that depends only
// on the DAG, the partition, the library, and the frozen pre-cover
// placement — not on K and not on sibling DP decisions.
type preparedMatch struct {
	m match.Match
	// com is Eq. 2's pos(m,v): the center of mass of the covered base
	// gates on the frozen pre-cover placement snapshot.
	com geom.Point
	// subLeaf[i] reports whether m.Leaves[i] heads an in-tree input
	// subtree of this match (inTree(l) && covered[father[l]]) — the
	// leaf classification the DP otherwise recomputes per K with a
	// scratch map per match.
	subLeaf []bool
	// crossDist[i] is com.Manhattan(base[m.Leaves[i]]) for
	// cross-reference leaves; unused (zero) for subtree leaves, whose
	// distance depends on the K-dependent child solution.
	crossDist []float64
}

// Prefix is the K-invariant prefix of covering one partitioned DAG:
// the materialized trees, tree membership, the frozen pre-cover
// placement, and the complete per-vertex match enumeration with
// cached geometry. It is immutable after BuildPrefix and safe to
// share across goroutines; CoverWithPrefix runs the K-dependent DP
// against it without touching the matcher again.
//
// A Prefix is valid for exactly the (DAG, forest, library, placement)
// it was built from — any of those changing invalidates the cached
// matches and distances, and the caller must build a new one.
type Prefix struct {
	dag *subject.DAG
	// trees/rootOf mirror forest.Trees(dag) / forest.RootOf(dag).
	trees  []partition.Tree
	rootOf []int
	// pos is the frozen pre-cover placement the geometry was cached
	// against; CoverWithPrefix seeds Result.Pos from it.
	pos []geom.Point
	// matches[g] holds every library match rooted at gate g (nil for
	// PIs, constants, and gates outside every tree).
	matches [][]preparedMatch
}

// NumTrees returns the number of partition trees.
func (p *Prefix) NumTrees() int { return len(p.trees) }

// NumMatches returns the total number of cached matches.
func (p *Prefix) NumMatches() int {
	n := 0
	for _, pms := range p.matches {
		n += len(pms)
	}
	return n
}

// inTreeFunc returns the membership test for the tree rooted at root,
// equivalent to partition.Tree.InTree but backed by the dense rootOf
// slice instead of a per-tree map.
func (p *Prefix) inTreeFunc(root int) func(int) bool {
	rootOf := p.rootOf
	return func(g int) bool { return g >= 0 && g < len(rootOf) && rootOf[g] == root }
}

// BuildPrefix enumerates every library match of every tree vertex and
// caches the K-invariant covering terms. pos gives the placement of
// all subject gates and is snapshotted (the Prefix keeps its own
// frozen copy, exactly the pre-cover snapshot Cover froze per call).
// Trees fan out across workers goroutines — each tree writes only its
// own vertices' match lists, so the result is identical for every
// worker count. A canceled ctx stops the enumeration promptly with a
// wrapped ctx error.
func BuildPrefix(ctx context.Context, dag *subject.DAG, forest *partition.Forest, lib *library.Library, pos []geom.Point, workers int) (*Prefix, error) {
	if len(pos) < dag.NumGates() {
		return nil, fmt.Errorf("cover: %d positions for %d gates", len(pos), dag.NumGates())
	}
	p := &Prefix{
		dag:     dag,
		trees:   forest.Trees(dag),
		rootOf:  forest.RootOf(dag),
		pos:     append([]geom.Point(nil), pos...),
		matches: make([][]preparedMatch, dag.NumGates()),
	}
	dag.PrecomputeFanouts() // no lazy rebuild race under the fan-out
	err := par.ForEach(ctx, workers, len(p.trees), func(ti int) error {
		p.enumerateTree(dag, forest, lib, ti)
		return nil
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cover: canceled enumerating matches: %w", cerr)
		}
		return nil, err
	}
	return p, nil
}

// enumerateTree fills p.matches for every vertex of tree ti: the
// complete match enumeration with cached K-invariant geometry. It
// writes only tree ti's own vertices' match lists, so disjoint trees
// enumerate concurrently. Shared by BuildPrefix (all trees) and
// RebuildPrefix (dirty trees only).
func (p *Prefix) enumerateTree(dag *subject.DAG, forest *partition.Forest, lib *library.Library, ti int) {
	t := &p.trees[ti]
	inTree := p.inTreeFunc(t.Root)
	m := match.NewMatcher(dag, lib, forest.Father, inTree)
	covered := map[int]bool{} // scratch per match
	for _, v := range t.Gates {
		ms := m.MatchesAt(v)
		pms := make([]preparedMatch, len(ms))
		for i := range ms {
			mt := &ms[i]
			for k := range covered {
				delete(covered, k)
			}
			for _, c := range mt.Covered {
				covered[c] = true
			}
			var com geom.Point
			for _, c := range mt.Covered {
				com = com.Add(p.pos[c])
			}
			com = com.Scale(1 / float64(len(mt.Covered)))
			pm := preparedMatch{
				m:         *mt,
				com:       com,
				subLeaf:   make([]bool, len(mt.Leaves)),
				crossDist: make([]float64, len(mt.Leaves)),
			}
			for li, l := range mt.Leaves {
				if inTree(l) && covered[forest.Father[l]] {
					pm.subLeaf[li] = true
				} else {
					pm.crossDist[li] = com.Manhattan(p.pos[l])
				}
			}
			pms[i] = pm
		}
		p.matches[v] = pms
	}
}
