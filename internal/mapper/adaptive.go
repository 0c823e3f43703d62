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
)

// TreeTerritories exposes the per-tree territory boxes of the prepared
// covering prefix: the bounding box of every layout position each
// tree's DP reads (see cover.Prefix.TreeTerritory). The adaptive
// controller intersects them with each iteration's changed gcells to
// decide which trees to re-cover.
func (p *Prepared) TreeTerritories() []geom.Rect { return p.prefix.TreeTerritories() }

// MapFieldDelta re-maps after a K-field update, re-covering only the
// dirty trees against prev and copying everything else. prev must come
// from MapStateful or a previous MapFieldDelta over the same Prepared
// at the same K; dirty must mark every tree whose territory intersects
// a gcell where prev's field and the new field differ
// (cover.DirtyTreesForField over TreeTerritories) — the controller's
// inflation step produces exactly that set. The result is
// byte-identical to a full cover of the Prepared under field. Recorded
// under a "map.cover_field_delta" span.
func MapFieldDelta(ctx context.Context, prev *CoverState, k float64, field *cover.KField, dirty []bool) (*Result, *CoverState, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("mapper: MapFieldDelta needs a previous cover state")
	}
	return mapCover(ctx, prev.prep, k, field, prev, dirty, nil, "map.cover_field_delta")
}
