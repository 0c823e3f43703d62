package mapper

// This file implements incremental (ECO) mapping: after a local edit —
// a gate-function change, a net reconnect, a placement nudge or swap —
// Invalidate builds a successor Prepared that recomputes only the
// dirtied partition trees' match enumerations (copy-on-write of
// everything clean, see cover/eco.go), and MapECO re-covers just those
// trees against a previous same-K cover. The original Prepared is
// never mutated: concurrent readers keep mapping against it while its
// successor is built.

import (
	"context"
	"fmt"

	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/obs"
	"casyn/internal/partition"
)

// ECO is the outcome of Prepared.Invalidate: the successor Prepared
// for the edited design plus the dirty-set bookkeeping the delta cover
// and the incremental router consume.
type ECO struct {
	// Prep is the successor prepared context: edited DAG, edited
	// placement, fresh partition, copy-on-write covering prefix. It is
	// a full Prepared — MapPrepared works against it directly, and a
	// further Invalidate chains off it.
	Prep *ECOPrepared
	// DirtyRoots lists the roots (edited-forest gate IDs) of the trees
	// whose enumeration was recomputed, ascending.
	DirtyRoots []int
	// EditedGates / MovedGates list the structurally edited and the
	// repositioned gate IDs.
	EditedGates []int
	MovedGates  []int
	// Trees / ReusedTrees count the partition trees of the edited
	// design and how many kept their cached enumeration.
	Trees       int
	ReusedTrees int
}

// ECOPrepared is a Prepared carrying its ECO lineage: the parent it
// was invalidated from and the per-tree reuse map, which is what lets
// MapECO re-cover only the dirty trees. It embeds Prepared, so every
// Prepared consumer (MapPrepared, Compatible, a further Invalidate)
// accepts it unchanged.
type ECOPrepared struct {
	Prepared
	parent  *Prepared
	rebuild *cover.Rebuild
}

// Invalidate applies an edit set to the prepared design and returns
// the successor context, recomputing only what the edits dirtied. The
// receiver is read-only throughout — on any error (invalid edits
// included) it is returned to the caller exactly as it was, and even
// on success it remains valid for concurrent use.
//
// Dirty-set granularity is the partition tree: a tree is recomputed
// iff its membership changed, a member was edited or moved, a member's
// father pointer changed, or a fanin of a member moved — the exact
// set of inputs its cached match enumeration and geometry read.
// Partitioning itself is recomputed in full (it is a cheap O(E) pass;
// the expensive match enumeration is what the copy-on-write avoids).
//
// The work is recorded under an "eco.invalidate" span; dirty/reused
// tree counts land on "eco.dirty_trees" / "eco.reused_trees".
func (p *Prepared) Invalidate(ctx context.Context, edits EditSet) (*ECO, error) {
	if p == nil {
		return nil, fmt.Errorf("eco: nil Prepared")
	}
	rec := obs.From(ctx)
	ectx, span := rec.StartSpan(ctx, "eco.invalidate")
	e, err := p.invalidate(ectx, edits)
	span.End(err)
	if err != nil {
		return nil, err
	}
	rec.Add("eco.edits", int64(len(edits.Edits)))
	rec.Add("eco.dirty_trees", int64(len(e.DirtyRoots)))
	rec.Add("eco.reused_trees", int64(e.ReusedTrees))
	return e, nil
}

func (p *Prepared) invalidate(ctx context.Context, edits EditSet) (*ECO, error) {
	if err := edits.validate(p.dag, p.in.Pos); err != nil {
		return nil, err
	}
	// Private clones: the parent's DAG and placement stay untouched no
	// matter what happens past this point.
	dag := p.dag.Clone()
	pos := append([]geom.Point(nil), p.in.Pos...)
	structEdited, moved, err := edits.apply(dag, pos)
	if err != nil {
		return nil, err
	}
	// Re-partition the edited design in full. PDP fathers are
	// nearest-consumer selections, so one moved gate can flip fathers
	// anywhere along its nets; recomputing the whole forest (linear in
	// the DAG) and diffing per tree is both simpler and sound.
	forest, err := partition.Partition(partition.Input{
		DAG:    dag,
		Pos:    pos,
		POPads: p.in.POPads,
	}, p.opts.Method)
	if err != nil {
		return nil, err
	}
	rb, err := cover.RebuildPrefix(ctx, dag, forest, p.opts.Lib, pos, p.opts.Workers,
		p.forest, p.prefix, structEdited)
	if err != nil {
		return nil, err
	}
	succ := &ECOPrepared{
		Prepared: Prepared{
			dag:    dag,
			forest: forest,
			prefix: rb.Prefix,
			opts:   p.opts,
			in:     Input{Pos: pos, POPads: p.in.POPads},
		},
		parent:  p,
		rebuild: rb,
	}
	return &ECO{
		Prep:        succ,
		DirtyRoots:  rb.DirtyRoots,
		EditedGates: structEdited,
		MovedGates:  moved,
		Trees:       len(rb.Dirty),
		ReusedTrees: len(rb.Dirty) - len(rb.DirtyRoots),
	}, nil
}

// SharesMatches reports whether the successor shares gate g's cached
// match slice with its parent (pointer identity). Test hook for the
// copy-on-write contract.
func (e *ECOPrepared) SharesMatches(g int) bool {
	return cover.SharesMatches(e.parent.prefix, e.prefix, g)
}

// Parent returns the Prepared this context was invalidated from.
func (e *ECOPrepared) Parent() *Prepared { return e.parent }

// CoverState is one K rung's covering result together with its
// lineage: the Prepared it covered, the K it covered at, and the
// K-field it covered under. MapStateful produces the initial one;
// MapECO and MapFieldDelta re-cover only dirty trees against it.
type CoverState struct {
	prep *Prepared
	k    float64
	cov  *cover.Result
	// field is the K-field the cover ran with (nil is the uniform
	// field). A structural ECO re-covers under it; a field delta
	// replaces it.
	field *cover.KField
}

// K returns the congestion factor the state was covered at.
func (s *CoverState) K() float64 { return s.k }

// coverOptions assembles the covering options of a Prepared at K.
func (p *Prepared) coverOptions(k float64) cover.Options {
	return cover.Options{
		K:              k,
		TransitiveWire: p.opts.TransitiveWire,
		NoWire2:        p.opts.NoWire2,
		Workers:        p.opts.Workers,
	}
}

// MapStateful is MapPrepared plus the covering state an ECO delta can
// later start from. The cover is recorded under a "map.cover_only"
// span.
func MapStateful(ctx context.Context, prep *Prepared, k float64) (*Result, *CoverState, error) {
	return mapCover(ctx, prep, k, nil, nil, nil, "map.cover_only")
}

// MapECO maps the invalidated context at K. When prev carries a cover
// of the parent Prepared at the same K, only the trees Invalidate
// re-enumerated run the covering DP, under prev's K-field — the clean
// trees' solutions carry over — and the result is byte-identical to a
// full cover of the successor under that field. With no usable prev
// (nil, different K, or different lineage) it falls back to a full
// cover under the uniform field, counted on "eco.cover_full". Either
// way the returned CoverState chains further ECOs.
func MapECO(ctx context.Context, e *ECO, prev *CoverState, k float64) (*Result, *CoverState, error) {
	if e == nil || e.Prep == nil {
		return nil, nil, fmt.Errorf("mapper: nil ECO")
	}
	rec := obs.From(ctx)
	if prev == nil || prev.k != k || prev.prep != e.Prep.parent {
		rec.Add("eco.cover_full", 1)
		return MapStateful(ctx, &e.Prep.Prepared, k)
	}
	rec.Add("eco.cover_delta", 1)
	return mapCover(ctx, &e.Prep.Prepared, k, prev.field, prev, e.Prep.rebuild.Dirty, "eco.cover_delta")
}

// mapCover covers prep's prefix at K under field (nil is the uniform
// field) and reconstructs the netlist. With a prev it re-covers only
// the trees dirty marks and copies the rest from prev's cover, whose
// clean trees must read what they read in prev (cover.CoverDelta). The
// cover is recorded under the named span.
func mapCover(ctx context.Context, prep *Prepared, k float64, field *cover.KField, prev *CoverState, dirty []bool, span string) (*Result, *CoverState, error) {
	if prep == nil {
		return nil, nil, fmt.Errorf("mapper: nil Prepared")
	}
	if prev != nil && prev.k != k {
		return nil, nil, fmt.Errorf("mapper: delta at K=%g against a K=%g cover", k, prev.k)
	}
	opts := prep.coverOptions(k)
	opts.KField = field
	rec := obs.From(ctx)
	cctx, cSpan := rec.StartSpan(ctx, span)
	var cov *cover.Result
	var err error
	if prev == nil {
		cov, err = cover.CoverWithPrefix(cctx, prep.dag, prep.forest, prep.prefix, opts)
	} else {
		cov, err = cover.CoverDelta(cctx, prep.dag, prep.forest, prep.prefix, prev.cov, opts, dirty)
	}
	cSpan.End(err)
	if err != nil {
		return nil, nil, err
	}
	_, rSpan := rec.StartSpan(ctx, "map.reconstruct")
	res, err := reconstruct(prep.dag, prep.forest, cov)
	rSpan.End(err)
	if err != nil {
		return nil, nil, err
	}
	rec.Add("map.cells", int64(res.NumCells))
	rec.Add("map.duplicated_cells", int64(res.DuplicatedCells))
	return res, &CoverState{prep: prep, k: k, cov: cov, field: field}, nil
}
