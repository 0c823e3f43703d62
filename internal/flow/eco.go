package flow

// This file wires incremental ECO synthesis end to end: RunStateful
// runs one K iteration while capturing the state an edit can later be
// applied against (prepared mapping context, covering state, routing
// state), and RunECO applies a mapper.EditSet to that state —
// re-preparing only the dirtied partition trees, re-covering only
// those trees, and (in fast mode) re-ripping only the nets whose
// territories intersect the dirtied region. Both run RunOnce's
// iteration body, so stage budgets, panic recovery, and cancellation
// behave exactly as in Run/RunOnce.

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
// state for the next edit.
type ECOState struct {
	Prep  *mapper.Prepared
	Cover *mapper.CoverState
	Route *route.State
	K     float64
	// Seeds and Place are the mapper seed positions and the legalized
	// placement of this iteration's netlist. Fast-mode ECO reuses them:
	// cells whose seeds are unchanged keep their legalized position
	// verbatim (place.PlaceECO), which keeps the dirtied routing region
	// genuinely local. Nil when the iteration ran with FreshPlacement.
	Seeds []geom.Point
	Place *place.Placement
}

// RunStateful is RunOnce at a fixed K that additionally returns the
// ECOState subsequent edits are applied against. The Iteration is
// byte-identical to RunOnce's at the same K (the state capture is
// passive). Like RunOnce, it builds the mapping prefix on a private
// copy of pc when pc lacks a compatible one; the state carries it.
func RunStateful(ctx context.Context, pc *Context, k float64, cfg Config) (Iteration, *ECOState, error) {
	it, st, _, err := iterate(ctx, pc, cfg, k, iterIn{capture: true})
	return it, st, err
}

// RunECO applies an edit set against a previous iteration's state and
// re-synthesizes incrementally: Invalidate recomputes only the dirtied
// partition trees' match enumerations (StageECO), MapECO re-covers
// only those trees against the previous same-K cover (StageMap), and
// the mapped netlist is verified, placed, routed, and timed exactly as
// a RunOnce iteration. The returned Iteration and the mapped netlist
// are byte-identical to a from-scratch synthesis of the edited design
// in the same placement context (the differential ECO harness proves
// this across circuits, edit streams, K values, and worker counts).
//
// Placement and routing run from scratch by default, which is what
// makes the byte-identity exact. With cfg.FastECORoute set, both go
// incremental: cells whose mapper seeds are unchanged keep st.Place's
// legalized positions verbatim (place.PlaceECO), and the router reuses
// st.Route — only nets whose territories intersect the dirtied region
// are ripped up and rerouted against the persisted congestion history.
// Milliseconds instead of a full legalize/negotiate, at the cost of
// exact placement and path identity (the route/eco invariant tests pin
// what fast mode does guarantee).
//
// st is read-only: on error the caller's state is still valid, and on
// success it remains usable (e.g. to try a different edit set against
// the same baseline).
func RunECO(ctx context.Context, pc *Context, st *ECOState, edits mapper.EditSet, cfg Config) (Iteration, *ECOState, error) {
	if st == nil || st.Prep == nil || st.Cover == nil {
		err := fmt.Errorf("flow: RunECO needs the state of a previous RunStateful/RunECO")
		return Iteration{Err: err, Skipped: true}, nil, err
	}
	cfg.defaults()
	if !st.Prep.Compatible(cfg.Method, cfg.Lib) {
		err := fmt.Errorf("flow: ECO state was prepared with a different method or library")
		return Iteration{K: st.K, Err: err, Skipped: true}, nil, err
	}
	it, next, _, err := iterate(ctx, pc, cfg, st.K, iterIn{prev: st, edits: edits, capture: true})
	return it, next, err
}
