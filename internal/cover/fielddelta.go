package cover

// This file implements the incremental side of K-field covering: when
// the adaptive controller inflates a few gcells of the field, only the
// trees whose DP can observe those cells need re-covering. The
// observable region of a tree — its territory — is the bounding box of
// every layout position its cost function reads:
//
//   - members' frozen positions (centers of mass are averages of
//     covered members' positions, so they lie inside the members' hull;
//     committed solution positions are such centers of mass);
//   - members' fanins' positions (every match leaf is an input of some
//     covered member, so the fanins are a superset of the cross- and
//     subtree-leaf endpoints).
//
// Every span the field samples (endpoints and midpoint, see
// KField.SpanMult) connects two points of this set, and a bounding box
// is convex, so all samples land inside the territory. Hence a field
// change strictly outside a tree's territory cannot alter any cost the
// tree's DP computes, and the tree's previous solutions carry over
// verbatim — the same copy-on-write argument CoverDelta makes for
// structural edits, applied to the field dimension.

import (
	"context"
	"fmt"

	"casyn/internal/geom"
	"casyn/internal/obs"
	"casyn/internal/par"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// TreeTerritory returns the bounding box of every layout position tree
// ti's covering DP reads: the members' frozen positions plus the
// positions of every member's fanins. A K-field whose multipliers are
// unchanged over this box leaves the tree's DP bit-identical (see the
// file comment for the argument).
func (p *Prefix) TreeTerritory(ti int) geom.Rect {
	t := &p.trees[ti]
	first := true
	var r geom.Rect
	grow := func(pt geom.Point) {
		if first {
			r = geom.Rect{Min: pt, Max: pt}
			first = false
			return
		}
		if pt.X < r.Min.X {
			r.Min.X = pt.X
		}
		if pt.Y < r.Min.Y {
			r.Min.Y = pt.Y
		}
		if pt.X > r.Max.X {
			r.Max.X = pt.X
		}
		if pt.Y > r.Max.Y {
			r.Max.Y = pt.Y
		}
	}
	for _, v := range t.Gates {
		grow(p.pos[v])
		for _, l := range p.dag.Fanins(v) {
			grow(p.pos[l])
		}
	}
	return r
}

// TreeTerritories returns every tree's territory, indexed like the
// prefix's trees. The adaptive controller computes these once per
// Prepared and intersects them with each iteration's changed gcells.
func (p *Prefix) TreeTerritories() []geom.Rect {
	out := make([]geom.Rect, len(p.trees))
	for ti := range p.trees {
		out[ti] = p.TreeTerritory(ti)
	}
	return out
}

// DirtyTreesForField classifies trees against a field update: tree ti
// is dirty iff its territory intersects at least one gcell whose
// multiplier changed. terr must be the prefix's TreeTerritories;
// changed is row-major like f.Mult. Positions outside the die clamp to
// border cells (KField.CellOf), so territories partially off-grid are
// classified against the clamped border cells — the same cells their
// spans actually sample.
func DirtyTreesForField(terr []geom.Rect, f *KField, changed []bool) []bool {
	dirty := make([]bool, len(terr))
	for ti, r := range terr {
		x0, y0 := f.CellOf(r.Min)
		x1, y1 := f.CellOf(r.Max)
	scan:
		for y := y0; y <= y1; y++ {
			row := y * f.NX
			for x := x0; x <= x1; x++ {
				if changed[row+x] {
					dirty[ti] = true
					break scan
				}
			}
		}
	}
	return dirty
}

// CoverFieldDelta re-runs the covering DP on only the dirty trees of a
// prefix after a K-field update, copying the clean trees' solutions
// and committed positions from a previous cover over the same prefix.
// prev must be the Result of CoverWithPrefix (or a previous
// CoverFieldDelta) over this exact prefix at the same opts except for
// the field, and dirty must mark (at least) every tree whose territory
// intersects a gcell where prev's field and opts.KField differ — the
// caller owns that lineage (mapper.CoverState threads it; a nil
// previous field is the uniform one). The result is then
// byte-identical to CoverWithPrefix over the full prefix at opts:
// clean trees' DPs read only their own enumeration, the frozen
// snapshot, and field samples inside their territory, so recomputing
// them would reproduce prev's solutions exactly.
func CoverFieldDelta(ctx context.Context, dag *subject.DAG, forest *partition.Forest, prefix *Prefix, prev *Result, opts Options, dirty []bool) (*Result, error) {
	if prefix == nil || prefix.dag != dag {
		return nil, fmt.Errorf("cover: prefix built for a different DAG")
	}
	if prev == nil || len(prev.Best) != dag.NumGates() {
		return nil, fmt.Errorf("cover: previous cover does not match the DAG")
	}
	if len(dirty) != len(prefix.trees) {
		return nil, fmt.Errorf("cover: %d dirty flags for %d trees", len(dirty), len(prefix.trees))
	}
	if opts.KField == nil {
		return nil, fmt.Errorf("cover: CoverFieldDelta needs a K-field (use CoverWithPrefix)")
	}
	if opts.WireUnit == 0 {
		opts.WireUnit = 0.5
	}
	res := &Result{
		Best: make([]*Solution, dag.NumGates()),
		Pos:  append([]geom.Point(nil), prefix.pos...),
	}
	reused := 0
	for _, d := range dirty {
		if !d {
			reused++
		}
	}
	rec := obs.From(ctx)
	rec.Add("cover.trees", int64(len(prefix.trees)))
	rec.Add("cover.field_reused_trees", int64(reused))
	ins := instruments{
		solutions: rec.Counter("cover.solutions"),
		matches:   rec.Counter("cover.matches"),
		perGate:   rec.Histogram("cover.matches_per_gate", matchesPerGateBounds),
	}
	err := par.ForEach(ctx, opts.Workers, len(prefix.trees), func(ti int) error {
		t := &prefix.trees[ti]
		if !dirty[ti] {
			// Clean tree: solutions are immutable after covering and no
			// field sample the tree can observe changed, so the pointers
			// and committed positions carry over (see CoverDelta for the
			// structural analogue of this argument).
			for _, v := range t.Gates {
				res.Best[v] = prev.Best[v]
				res.Pos[v] = prev.Pos[v]
			}
			return nil
		}
		return coverTree(dag, forest, prefix, t, res, opts, ins)
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cover: canceled with %d trees pending: %w", len(prefix.trees), cerr)
		}
		return nil, err
	}
	for _, root := range forest.Roots {
		sol := res.Best[root]
		res.RootArea += sol.AreaCost
		res.RootWire += sol.Wire
	}
	return res, nil
}
