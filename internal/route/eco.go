package route

// This file implements incremental (ECO) rerouting. The caller aligns
// the edited design's nets with the previous routing's by identity
// (a new→old net map; the flow keys a net by its driving subject
// gate), so nets may be inserted, removed and renumbered. Aligned nets
// whose terminal gcells did not change keep their routed paths
// verbatim; new nets and nets whose terminals changed are ripped and
// rerouted against the persisted congestion history of the previous
// routing, so the negotiation resumes where it left off instead of
// relearning the hot spots. Residual overflow the baseline negotiation
// already settled for is treated as settled (the router's overflow
// floor), and only the ripped nets' segments are eligible for rip-up
// rounds; marginal overflow the edit adds on a saturated design is
// reported rather than re-negotiated globally.
//
// Incremental rerouting is deliberately NOT byte-identical to a
// from-scratch RouteNetlist of the edited design: the first pass's
// L-shape choices read accumulated congestion, so any reroute
// ordering that skips clean nets observes different intermediate
// state. The contract is instead: (1) an unchanged design returns the
// previous result verbatim, (2) the final grid usage exactly equals
// the sum of the final paths, removed nets' usage gone, and (3) only
// new nets and nets whose terminals changed change paths. The eco
// invariant and alignment tests pin all three; the differential ECO
// harness proves byte-identity of the exact path (full reroute),
// which flow.RunECO uses by default.

import (
	"context"
	"fmt"

	"casyn/internal/obs"
	"casyn/internal/place"
)

// State captures a completed routing for incremental reuse: the
// settled grid (usage and negotiation history), every segment's final
// path, and the per-net terminal gcells the next routing is diffed
// against.
type State struct {
	layout place.Layout
	opts   Options // defaulted
	grid   *Grid
	segs   []twoPin
	// segsOfNet[ni] indexes segs for net ni, in mstPairs order.
	segsOfNet [][]int
	// netTerms[ni] is net ni's deduped terminal gcells.
	netTerms [][][2]int
	res      *Result
}

// netSlots groups the canonical slots sortSegs returned by net: for
// each of nets nets, the positions its segments take in the sorted
// list, in emission (mstPairs) order. segs must be the unsorted input,
// in emission order: net by net, each net's segments contiguous.
func netSlots(segs []twoPin, slots []int, nets int) [][]int {
	out := make([][]int, nets)
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && segs[j].net == segs[i].net {
			j++
		}
		out[segs[i].net] = slots[i:j:j]
		i = j
	}
	return out
}

// union grows r to cover o.
func (r gridRect) union(o gridRect) gridRect {
	if o.X0 < r.X0 {
		r.X0 = o.X0
	}
	if o.Y0 < r.Y0 {
		r.Y0 = o.Y0
	}
	if o.X1 > r.X1 {
		r.X1 = o.X1
	}
	if o.Y1 > r.Y1 {
		r.Y1 = o.Y1
	}
	return r
}

// copyHistoryFrom persists o's negotiation history onto g. Grids must
// have identical dimensions.
func (g *Grid) copyHistoryFrom(o *Grid) {
	for y := 0; y < g.NY; y++ {
		copy(g.histH[y], o.histH[y])
		copy(g.histV[y], o.histV[y])
	}
}

// capacityDiffRect returns the bounding box of gcells whose edge
// capacities differ between the grids (a placement change moves cell
// density, which derates capacity), and whether any differ.
func capacityDiffRect(a, b *Grid) (gridRect, bool) {
	var r gridRect
	found := false
	for y := 0; y < a.NY; y++ {
		for x := 0; x < a.NX; x++ {
			if a.capH[y][x] == b.capH[y][x] && a.capV[y][x] == b.capV[y][x] {
				continue
			}
			c := gridRect{X0: x, Y0: y, X1: x, Y1: y}
			if !found {
				r, found = c, true
			} else {
				r = r.union(c)
			}
		}
	}
	return r, found
}

func equalTerms(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RouteECO incrementally reroutes the edited design against a previous
// routing State. oldNet aligns the nets: oldNet[ni] is the previous
// net with net ni's identity (the flow keys a net by the subject gate
// driving its signal), or -1 for a new net. An aligned net whose
// terminal gcells are unchanged keeps its previous paths verbatim;
// every other net — new, or with changed terminals — is ripped and
// rerouted: maze-routed in the canonical global order, then negotiated
// among the ripped nets against the kept usage and the persisted
// congestion history, with the baseline's residual overflow accepted
// as settled (only overflow the edit introduced, by a new path or by a
// capacity shift under a moved cell, triggers rip-up rounds, and only
// the ripped nets' segments are eligible for rip-up). Previous nets
// nothing maps to are removed and their usage with them. Marginal
// overflow the edit adds on a saturated design is reported in the
// Result rather than fought globally.
//
// An unchanged design (identity map, identical terminals and
// capacities) returns the previous Result and State verbatim. A nil
// oldNet means the nets cannot be aligned: RouteECO falls back to a
// full RouteNetlistState — same signature, counted on
// "eco.route_full". An out-of-range or duplicate oldNet entry is an
// error.
func RouteECO(ctx context.Context, st *State, nl *place.Netlist, pl *place.Placement, oldNet []int) (*Result, *State, error) {
	rec := obs.From(ctx)
	if st == nil {
		return nil, nil, fmt.Errorf("route: RouteECO needs a previous State")
	}
	if len(pl.Pos) != nl.NumCells() {
		return nil, nil, fmt.Errorf("route: placement for %d cells, netlist has %d", len(pl.Pos), nl.NumCells())
	}
	if oldNet == nil {
		rec.Add("eco.route_full", 1)
		return RouteNetlistState(ctx, nl, pl, st.layout, st.opts)
	}
	if len(oldNet) != len(nl.Nets) {
		return nil, nil, fmt.Errorf("route: net map has %d entries, netlist has %d nets", len(oldNet), len(nl.Nets))
	}
	identity := len(nl.Nets) == len(st.netTerms)
	claimed := make([]bool, len(st.netTerms))
	for ni, o := range oldNet {
		identity = identity && o == ni
		if o < 0 {
			continue
		}
		if o >= len(st.netTerms) {
			return nil, nil, fmt.Errorf("route: net %d maps to previous net %d of %d", ni, o, len(st.netTerms))
		}
		if claimed[o] {
			return nil, nil, fmt.Errorf("route: previous net %d is mapped twice", o)
		}
		claimed[o] = true
	}
	opts := st.opts
	density, err := cellDensity(nl, pl, st.layout, opts)
	if err != nil {
		return nil, nil, err
	}
	g, err := NewGrid(st.layout, opts, density)
	if err != nil {
		return nil, nil, err
	}
	if g.NX != st.grid.NX || g.NY != st.grid.NY {
		rec.Add("eco.route_full", 1)
		return RouteNetlistState(ctx, nl, pl, st.layout, st.opts)
	}

	// New nets and nets whose terminals changed are ripped directly;
	// their neighbors are not — any conflict a changed net's new path
	// or a capacity shift under a moved cell causes is exactly what the
	// post-rip negotiation resolves.
	_, decSpan := rec.StartSpan(ctx, "route.decompose")
	nt := newNetTerminals(nl)
	var changed []int
	var ptsBuf [][2]int
	for ni := range nl.Nets {
		pts := terminalCells(g, nl, pl, ni, ptsBuf[:0])
		ptsBuf = pts
		nt.add(pts)
		if o := oldNet[ni]; o < 0 || !equalTerms(st.netTerms[o], pts) {
			changed = append(changed, ni)
		}
	}
	terms := nt.perNet()
	if identity && len(changed) == 0 {
		if _, shifted := capacityDiffRect(st.grid, g); !shifted {
			// Nothing moved and nothing reconnected: the previous
			// routing is the routing.
			decSpan.End(nil)
			rec.Add("eco.route_nets_kept", int64(len(nl.Nets)))
			return st.res, st, nil
		}
	}

	// Only new and changed nets are ripped. Overflow a capacity shift
	// or a changed net's new path puts on kept paths is handled by the
	// floor-gated negotiation below, among the ripped nets only —
	// instead of preemptively ripping every net near a moved cell (on a
	// coarse grid that is a large fraction of the design).
	rip := make([]bool, len(nl.Nets))
	for _, ni := range changed {
		rip[ni] = true
	}
	ripped := len(changed)

	// Rebuild the canonical segment list. A kept net has its previous
	// net's terminals, so its mstPairs are the previous net's segments
	// in emission order: it takes their endpoints and paths from the
	// previous state instead of re-running the MST. Ripped nets are
	// decomposed afresh and start pathless. A spanning tree over n
	// terminals has n-1 edges, which sizes the list exactly.
	numSegs := 0
	for _, pts := range terms {
		numSegs += max(len(pts)-1, 0)
	}
	segs := make([]twoPin, 0, numSegs)
	for ni := range nl.Nets {
		if !rip[ni] {
			// A kept net is aligned (oldNet[ni] >= 0): new nets are ripped.
			for _, si := range st.segsOfNet[oldNet[ni]] {
				old := &st.segs[si]
				segs = append(segs, twoPin{net: ni, a: old.a, b: old.b, path: old.path})
			}
			continue
		}
		pts := terms[ni]
		if len(pts) < 2 {
			continue
		}
		for _, pr := range mstPairs(g, pts) {
			segs = append(segs, twoPin{net: ni, a: pr[0], b: pr[1]})
		}
	}
	sorted, slots := sortSegs(segs)
	segsOfNet := netSlots(segs, slots, len(nl.Nets))
	segs = sorted
	decSpan.End(nil)
	// Persist the negotiated history — the learned congestion map — so
	// rerouting resumes rather than relearns.
	g.copyHistoryFrom(st.grid)
	reroute := make([]bool, len(segs))
	for i := range segs {
		reroute[i] = segs[i].path == nil
	}

	rec.Add("route.nets", int64(len(nl.Nets)))
	rec.Add("route.segments", int64(len(segs)))
	rec.Add("eco.route_nets_changed", int64(len(changed)))
	rec.Add("eco.route_nets_ripped", int64(ripped))
	rec.Add("eco.route_nets_kept", int64(len(nl.Nets)-ripped))

	// Re-apply the kept paths' usage, then pattern-route the ripped
	// segments in canonical order against it, then negotiate everything
	// under the persisted history.
	check := cancelChecker{ctx: ctx}
	for i := range segs {
		if reroute[i] {
			continue
		}
		if err := check.tick(); err != nil {
			return nil, nil, fmt.Errorf("route: canceled: %w", err)
		}
		for _, e := range segs[i].path {
			g.addUsage(e, 1)
		}
	}
	r := newRouter(g, opts)
	// Residual overflow the baseline negotiation already settled for is
	// not this edit's problem (floorGrid), and kept nets' paths are
	// never ripped (eligible): the rounds below only rework the edited
	// nets against each other.
	r.floorGrid = st.grid
	r.eligible = reroute
	// Ripped segments maze-route directly — serially, in canonical
	// order, against the kept usage and the persisted history — instead
	// of the from-scratch flow's pattern-route first pass. An L-shape
	// through the design's settled hot spots would push saturated edges
	// over their floor and drag their every co-user into the
	// negotiation; the maze reads the congestion and threads around
	// them, so the rounds below have little or nothing left to fix.
	_, fpSpan := rec.StartSpan(ctx, "route.first_pass")
	s := r.scratch.Get().(*mazeScratch)
	for i := range segs {
		if !reroute[i] {
			continue
		}
		if err := check.tick(); err != nil {
			err = fmt.Errorf("route: canceled: %w", err)
			fpSpan.End(err)
			return nil, nil, err
		}
		r.reroute(s, &segs[i])
	}
	r.scratch.Put(s)
	fpSpan.End(nil)
	rounds, err := r.negotiate(ctx, rec, segs)
	if err != nil {
		return nil, nil, err
	}
	res := collectResult(g, nl, segs, rounds)
	if rec != nil {
		recordRouteMetrics(rec, nl, pl, g, res)
	}
	return res, &State{layout: st.layout, opts: opts, grid: g, segs: segs, segsOfNet: segsOfNet, netTerms: terms, res: res}, nil
}
