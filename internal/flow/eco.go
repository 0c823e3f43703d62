package flow

// This file wires incremental ECO synthesis end to end: RunStateful
// runs one K iteration while capturing the state an edit can later be
// applied against (prepared mapping context, covering state, routing
// state), and RunECO applies a mapper.EditSet to that state —
// re-enumerating only the matches inside the edit's cone, re-covering
// only the dirtied partition trees, and (in fast mode) re-placing only
// the cells and re-ripping only the nets the edit changed. Both run
// RunOnce's iteration body, so stage budgets, panic recovery, and
// cancellation behave exactly as in Run/RunOnce.

import (
	"context"
	"fmt"

	"casyn/internal/geom"
	"casyn/internal/mapper"
	"casyn/internal/place"
	"casyn/internal/route"
)

// ECOState is the reusable residue of one synthesized iteration: what
// the next edit is diffed against. Prep/Cover chain the mapping side
// (copy-on-write invalidation and delta covering); Route carries the
// settled routing (paths, usage, negotiation history) for the fast
// incremental reroute. States chain: each RunECO returns the successor
// state for the next edit, and a state holds nothing of its
// predecessors, so a chain that keeps only its latest state frees the
// rest.
type ECOState struct {
	Prep  *mapper.Prepared
	Cover *mapper.CoverState
	Route *route.State
	K     float64
	// Seeds and Place are the mapper seed positions and the legalized
	// placement of this iteration's netlist. Fast-mode ECO reuses them:
	// cells whose identity, width and seed are unchanged keep their
	// legalized position verbatim (place.PlaceECO), which keeps the
	// dirtied routing region genuinely local. The chained drivers
	// always place seeded, so their states always carry Seeds.
	Seeds []geom.Point
	Place *place.Placement
	// Rows are Place's sorted row spans when a fast-mode ECO placed
	// it (place.PlaceECO), so the next fast edit copies them rather
	// than re-sorting every row; nil after a full placement.
	Rows *place.RowSpans
	// Widths are the cells' widths; CellKeys and NetKeys are the
	// identities fast-mode ECO aligns the next netlist's cells and
	// nets with: a cell's root subject gate (mapper.Result.InstGate)
	// and the subject gate driving a net's signal. Edits rewrite gates
	// in place, so the keys survive them.
	Widths   []float64
	CellKeys []int
	NetKeys  []int
}

// RunStateful is RunOnce at a fixed K that additionally returns the
// ECOState subsequent edits are applied against. It always places
// seeded, whatever cfg.FreshPlacement says, so the Iteration is
// byte-identical to a seeded RunOnce's at the same K (the state
// capture is passive). Like RunOnce, it builds the mapping prefix on a
// private copy of pc when pc lacks a compatible one; the state carries
// it. The ECO chain is single-die: a multi-die config or context is
// refused with an error before any stage runs.
func RunStateful(ctx context.Context, pc *Context, k float64, cfg Config) (Iteration, *ECOState, error) {
	if err := singleDie(pc, cfg); err != nil {
		return Iteration{}, nil, err
	}
	cfg.FreshPlacement = false
	it, st, _, err := iterate(ctx, pc, cfg, k, iterIn{})
	return it, st, err
}

// singleDie refuses an ECO chain on a multi-die run before any stage
// runs. A multi-die run maps over the k-way forest (PrepareForest),
// and Invalidate refuses a caller's forest
// (mapper.ErrForestNotRepartitionable).
func singleDie(pc *Context, cfg Config) error {
	if cfg.Dies > 1 || pc.KWay != nil {
		return fmt.Errorf("flow: the ECO chain is single-die; the run is multi-die")
	}
	return nil
}

// RunECO applies an edit set against a previous iteration's state (a
// RunStateful or RunECO result, or AdaptiveResult.State) and
// re-synthesizes incrementally: Invalidate re-enumerates only the
// matches of the gates within the edit's cone (StageECO), MapECO
// re-covers only the dirtied partition trees against the previous
// same-K cover and under its K-field (StageMap), and the mapped
// netlist is verified, placed, routed, and timed exactly as a seeded
// RunOnce iteration (like RunStateful, RunECO ignores
// cfg.FreshPlacement). The returned
// Iteration and the mapped netlist are byte-identical to a
// from-scratch seeded synthesis of the edited design in the same
// placement context (the differential ECO harness proves this across
// circuits, edit streams, K values, and worker counts).
//
// Placement and routing run from scratch by default, which is what
// makes the byte-identity exact. With cfg.FastECORoute set, both go
// incremental, with cells and nets aligned to st's by subject gate
// (ECOState.CellKeys, NetKeys), so edits that insert or remove cells
// stay incremental too: cells whose gate, width and mapper seed are
// unchanged keep st.Place's positions verbatim and the rest go into
// the nearest free gap (place.PlaceECO), and the router reuses
// st.Route — only new nets and nets whose terminals changed are ripped
// up and rerouted against the persisted congestion history
// (route.RouteECO). A fraction of a full legalize/negotiate, at the
// cost of exact placement and path identity (the place and route eco
// tests pin what fast mode does guarantee).
//
// st is read-only: on error the caller's state is still valid, and on
// success it remains usable (e.g. to try a different edit set against
// the same baseline). A missing state, a multi-die run or a state of
// another method or library is refused with an error before any stage
// runs.
func RunECO(ctx context.Context, pc *Context, st *ECOState, edits mapper.EditSet, cfg Config) (Iteration, *ECOState, error) {
	if st == nil || st.Prep == nil || st.Cover == nil {
		return Iteration{}, nil, fmt.Errorf("flow: RunECO needs the state of a previous RunStateful/RunECO/RunAdaptive")
	}
	if err := singleDie(pc, cfg); err != nil {
		return Iteration{}, nil, err
	}
	cfg.defaults()
	cfg.FreshPlacement = false
	if !st.Prep.Compatible(cfg.Method, cfg.Lib) {
		return Iteration{}, nil, fmt.Errorf("flow: ECO state was prepared with a different method or library")
	}
	it, next, _, err := iterate(ctx, pc, cfg, st.K, iterIn{prev: st, edits: edits})
	return it, next, err
}
