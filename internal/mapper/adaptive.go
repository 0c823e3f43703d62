package mapper

// This file is the mapping side of the closed-loop congestion
// controller (flow.RunAdaptive): covering under a spatial K-field and
// re-covering only the trees an inflation step can affect. The
// structural ECO path (eco.go) re-covers trees dirtied by netlist
// edits; this path re-covers trees dirtied by field changes — same
// prefix, same DAG, different dirty dimension.

import (
	"context"
	"fmt"

	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/obs"
)

// TreeTerritories exposes the per-tree territory boxes of the prepared
// covering prefix: the bounding box of every layout position each
// tree's DP reads (see cover.Prefix.TreeTerritory). The adaptive
// controller intersects them with each iteration's changed gcells to
// decide which trees to re-cover.
func (p *Prepared) TreeTerritories() []geom.Rect { return p.prefix.TreeTerritories() }

// Field returns the K-field the state was covered with (nil, the
// uniform field, for the global-K path).
func (s *CoverState) Field() *cover.KField { return s.field }

// MapWithField maps the prepared DAG at congestion factor K under a
// spatial K-field: every wire term of the covering cost is scaled by
// the field multiplier sampled along its span (cover/kfield.go). A nil
// or uniform field (all multipliers exactly 1.0) is byte-identical to
// MapStateful — the property the uniform-field tests in the
// differential harness pin. The work is recorded under a
// "map.cover_field" span.
func MapWithField(ctx context.Context, prep *Prepared, k float64, field *cover.KField) (*Result, *CoverState, error) {
	return mapField(ctx, prep, k, field, "map.cover_field")
}

// MapFieldDelta re-maps after a K-field update, re-covering only the
// dirty trees against prev and copying everything else. prev must come
// from MapStateful, MapWithField, or a previous MapFieldDelta over the
// same Prepared at the same K; dirty must mark every tree whose
// territory intersects a gcell where prev's field and the new field
// differ (cover.DirtyTreesForField over TreeTerritories) — the
// controller's inflation step produces exactly that set. The result is
// byte-identical to MapWithField(prep, k, field). Recorded under a
// "map.cover_field_delta" span with "map.field_dirty_trees" /
// "map.field_reused_trees" counters.
func MapFieldDelta(ctx context.Context, prev *CoverState, k float64, field *cover.KField, dirty []bool) (*Result, *CoverState, error) {
	if prev == nil || prev.prep == nil || prev.cov == nil {
		return nil, nil, fmt.Errorf("mapper: MapFieldDelta needs a previous cover state")
	}
	if prev.k != k {
		return nil, nil, fmt.Errorf("mapper: field delta at K=%g against a K=%g cover", k, prev.k)
	}
	prep := prev.prep
	opts := prep.coverOptions(k)
	opts.KField = field
	rec := obs.From(ctx)
	nDirty := 0
	for _, d := range dirty {
		if d {
			nDirty++
		}
	}
	rec.Add("map.field_dirty_trees", int64(nDirty))
	rec.Add("map.field_reused_trees", int64(len(dirty)-nDirty))
	cctx, cSpan := rec.StartSpan(ctx, "map.cover_field_delta")
	cov, err := cover.CoverFieldDelta(cctx, prep.dag, prep.forest, prep.prefix, prev.cov, opts, dirty)
	cSpan.End(err)
	if err != nil {
		return nil, nil, err
	}
	res, err := finishMap(ctx, rec, prep, cov)
	if err != nil {
		return nil, nil, err
	}
	return res, &CoverState{prep: prep, k: k, cov: cov, field: field}, nil
}
