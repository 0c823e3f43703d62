package mapper

// This file implements incremental (ECO) mapping: after a local edit —
// a gate-function change, a net reconnect, a placement nudge or swap —
// Invalidate builds a successor Prepared that re-enumerates only the
// matches inside the edit's cone (copy-on-write of every other gate,
// see cover/eco.go), and MapECO re-solves, against a previous same-K
// cover, just the DP vertices of the dirtied trees that the edit
// reaches, then patches the previous netlist (emit.go). The original
// Prepared is never mutated: concurrent readers keep mapping against
// it while its successor is built. The successor does not point back
// at it: only the transient ECO does, so a chain that keeps only its
// latest state lets every ancestor go.

import (
	"context"
	"errors"
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
	// a full Prepared — MapStateful works against it directly, and a
	// further Invalidate chains off it.
	Prep *Prepared
	// DirtyRoots lists the roots (edited-forest gate IDs) of the dirty
	// trees, ascending: the trees MapECO re-covers.
	DirtyRoots []int
	// EditedGates / MovedGates list the structurally edited and the
	// repositioned gate IDs.
	EditedGates []int
	MovedGates  []int
	// Trees / ReusedTrees count the partition trees of the edited
	// design and how many are clean: they keep their whole cached
	// enumeration and their cover.
	Trees       int
	ReusedTrees int
	// ReenumeratedGates counts the gates of dirty trees whose matches
	// were enumerated afresh; every other gate kept its cached slice.
	ReenumeratedGates int

	// parent is the Prepared this ECO was invalidated from: MapECO's
	// lineage check. rebuild is the per-tree dirty mask that lets
	// MapECO re-cover only the dirty trees. Both live here, not on the
	// successor, so a chain that drops its ECOs retains neither an
	// ancestor nor an edit's masks.
	parent  *Prepared
	rebuild *cover.Rebuild
}

// Invalidate applies an edit set to the prepared design and returns
// the successor context, recomputing only what the edits dirtied. The
// receiver is read-only throughout — on any error (invalid edits
// included) it is returned to the caller exactly as it was, and even
// on success it remains valid for concurrent use.
//
// Invalidation has two granularities (cover.RebuildPrefix). A tree is
// dirty, and MapECO re-covers it, iff its membership changed, a member
// was edited or moved, a member's father pointer changed, or a fanin
// of a member moved. Inside a dirty tree only the edit cone is
// re-enumerated: the gates within H-1 father steps above a touched
// gate or its fanouts, H being the library's deepest pattern.
// A PDP forest is re-partitioned edit-locally
// (partition.RepartitionPDP): only the fathers the edit can flip are
// re-decided and only the trees they touch are rebuilt, equal to a
// full re-partition of the edited design. A forest of another method
// is re-partitioned in full. A Prepared built over a caller's forest
// (PrepareForest, the k-way prefix) is refused with
// ErrForestNotRepartitionable before anything is touched: the mapper
// cannot rebuild that forest for the edited design.
//
// The work is recorded under an "eco.invalidate" span; dirty/reused
// tree counts land on "eco.dirty_trees" / "eco.reused_trees", and the
// re-enumerated gates on "eco.reenumerated_gates".
func (p *Prepared) Invalidate(ctx context.Context, edits EditSet) (*ECO, error) {
	if p == nil {
		return nil, fmt.Errorf("eco: nil Prepared")
	}
	if !p.partitioned {
		return nil, ErrForestNotRepartitionable
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
	rec.Add("eco.reenumerated_gates", int64(e.ReenumeratedGates))
	rec.Add("eco.reused_trees", int64(e.ReusedTrees))
	return e, nil
}

// ErrForestNotRepartitionable is Invalidate's refusal of a Prepared
// built over a caller's forest (PrepareForest): an edit would need
// that forest rebuilt for the edited design, which only its builder
// (the k-way partitioner) can do.
var ErrForestNotRepartitionable = errors.New("eco: a caller's forest cannot be re-partitioned after an edit")

func (p *Prepared) invalidate(ctx context.Context, edits EditSet) (*ECO, error) {
	if err := edits.validate(p.dag, p.forest.RootOf()); err != nil {
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
	// Re-partition the edited design. PDP fathers are nearest-consumer
	// selections, so only the gates an edit rewired, moved or
	// (un)killed, and their fanins, can flip: a PDP forest is patched
	// at those gates. Other methods are re-partitioned in full.
	in := partition.Input{DAG: dag, Pos: pos, POPads: p.in.POPads}
	var forest *partition.Forest
	var refathered []int
	if p.opts.Method == partition.PDP {
		forest, refathered, err = partition.RepartitionPDP(p.forest, p.dag, in, structEdited, moved)
	} else {
		forest, err = partition.Partition(in, p.opts.Method)
		if err == nil {
			refathered = forestChanges(p.forest, forest)
		}
	}
	if err != nil {
		return nil, err
	}
	rb, err := cover.RebuildPrefix(ctx, dag, forest, p.opts.Lib, pos, p.opts.Workers,
		p.forest, p.prefix, cover.Change{Edited: structEdited, Moved: moved, Refathered: refathered})
	if err != nil {
		return nil, err
	}
	succ := &Prepared{
		dag:         dag,
		forest:      forest,
		prefix:      rb.Prefix,
		opts:        p.opts,
		in:          Input{Pos: pos, POPads: p.in.POPads},
		partitioned: true,
	}
	return &ECO{
		Prep:              succ,
		DirtyRoots:        rb.DirtyRoots,
		EditedGates:       structEdited,
		MovedGates:        moved,
		Trees:             len(rb.Dirty),
		ReusedTrees:       len(rb.Dirty) - len(rb.DirtyRoots),
		ReenumeratedGates: rb.ReenumeratedGates,
		parent:            p,
		rebuild:           rb,
	}, nil
}

// forestChanges lists the gates whose father pointer or tree
// membership differs between two forests of the same DAG.
func forestChanges(prev, next *partition.Forest) []int {
	var out []int
	prevRoot, nextRoot := prev.RootOf(), next.RootOf()
	for g := range next.Father {
		if next.Father[g] != prev.Father[g] || (prevRoot[g] < 0) != (nextRoot[g] < 0) {
			out = append(out, g)
		}
	}
	return out
}

// CoverState is one K rung's covering result together with its
// lineage: the Prepared it covered, the K it covered at, and the
// K-field it covered under. MapStateful produces it; MapECO re-covers
// only what an edit dirtied against it, under its field. A new field
// is a new MapStateful call.
type CoverState struct {
	prep *Prepared
	k    float64
	cov  *cover.Result
	// field is the K-field the cover ran with (nil is the uniform
	// field). A structural ECO re-covers under it.
	field *cover.KField
	// res is the netlist built from cov and emission the record of its
	// layout: a successor patches it rather than rebuilding it.
	res      *Result
	emission *emission
}

// Field returns the K-field the cover ran with: nil for the uniform
// field.
func (c *CoverState) Field() *cover.KField { return c.field }

// coverOptions assembles the covering options of a Prepared at K.
func (p *Prepared) coverOptions(k float64) cover.Options {
	return cover.Options{
		K:              k,
		TransitiveWire: p.opts.TransitiveWire,
		NoWire2:        p.opts.NoWire2,
		Workers:        p.opts.Workers,
	}
}

// MapStateful maps the prepared DAG at one congestion factor K under a
// K-field (nil is the uniform field) and returns the covering state an
// ECO delta can later start from. The covering DP consumes the cached
// matches and re-evaluates only the K- and field-weighted cost
// combination. The cover is recorded under a "map.cover_only" span.
func MapStateful(ctx context.Context, prep *Prepared, k float64, field *cover.KField) (*Result, *CoverState, error) {
	return mapCover(ctx, prep, k, field, nil, nil, "map.cover_only")
}

// MapECO maps the invalidated context at K against prev, a cover of
// the parent Prepared at the same K. It re-covers under prev's K-field
// at the solution level: in the trees Invalidate marked dirty, the DP
// re-solves the re-enumerated gates and, transitively, the gates
// within the deepest pattern's height above a re-solved gate whose DP
// terms changed; every other solution carries over (cover.CoverDelta).
// The result is byte-identical to a full cover of the successor under
// that field. The netlist is patched rather than rebuilt: the segments
// of prev's netlist the edit left alone are copied (emit.go). prev is
// only read, so concurrent MapECO calls against one prev are safe. A
// nil prev, a prev at another K or one of another lineage is an error:
// a full cover would silently drop its K-field. The returned
// CoverState chains further ECOs.
func MapECO(ctx context.Context, e *ECO, prev *CoverState, k float64) (*Result, *CoverState, error) {
	switch {
	case e == nil || e.Prep == nil:
		return nil, nil, fmt.Errorf("mapper: nil ECO")
	case prev == nil:
		return nil, nil, fmt.Errorf("mapper: ECO needs the parent's cover state")
	case prev.k != k:
		return nil, nil, fmt.Errorf("mapper: ECO at K=%g against a K=%g cover", k, prev.k)
	case prev.prep != e.parent:
		return nil, nil, fmt.Errorf("mapper: ECO against a cover of another Prepared")
	}
	obs.From(ctx).Add("eco.cover_delta", 1)
	return mapCover(ctx, e.Prep, k, prev.field, prev, e.rebuild, "eco.cover_delta")
}

// mapCover covers prep's prefix at K under field (nil is the uniform
// field) and builds the netlist. With a prev it re-covers, under
// prev's field, only what rb dirtied and carries the rest over from
// prev's cover (cover.CoverDelta), then patches prev's netlist. The
// cover is recorded under the named span.
func mapCover(ctx context.Context, prep *Prepared, k float64, field *cover.KField, prev *CoverState, rb *cover.Rebuild, span string) (*Result, *CoverState, error) {
	if prep == nil {
		return nil, nil, fmt.Errorf("mapper: nil Prepared")
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
		cov, err = cover.CoverDelta(cctx, prep.dag, prep.forest, prep.prefix, prev.cov, opts, rb.Dirty, rb.Reenumerated)
	}
	cSpan.End(err)
	if err != nil {
		return nil, nil, err
	}
	// An ECO patches prev's netlist: it walks only what the edit can
	// have changed and copies the rest (emit.go).
	var base *patchBase
	if prev != nil {
		base = &patchBase{res: prev.res, cov: prev.cov, rec: prev.emission, dirtyRoots: rb.DirtyRoots}
	}
	_, rSpan := rec.StartSpan(ctx, "map.reconstruct")
	res, em, err := emit(prep.dag, prep.forest, cov, base)
	rSpan.End(err)
	if err != nil {
		return nil, nil, err
	}
	rec.Add("map.cells", int64(res.NumCells))
	rec.Add("map.duplicated_cells", int64(res.DuplicatedCells))
	if prev != nil {
		rec.Add("eco.copied_cells", int64(em.copied))
	}
	return res, &CoverState{prep: prep, k: k, cov: cov, field: field, res: res, emission: em}, nil
}
