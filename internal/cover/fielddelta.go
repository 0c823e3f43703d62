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
// tree's DP computes, and CoverDelta may carry the tree's previous
// solutions over verbatim — the copy-on-write argument RebuildPrefix
// makes for structural edits, applied to the field dimension.

import "casyn/internal/geom"

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
