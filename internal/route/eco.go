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
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"casyn/internal/obs"
	"casyn/internal/place"
)

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
// The bookkeeping scales with the edit, not the design. A kept net
// keeps its stable net ID and segment IDs, so the successor State
// shares every chunk of per-net and per-segment data the edit does not
// write (see State): it writes the ripped nets' records and fresh
// segments, and the failure flags of kept segments an overflow change
// flipped. An aligned net whose pins lie in the gcells the previous
// net's did is not re-derived at all. The canonical order is the
// previous order of segment IDs with the ripped nets' fresh segments
// merged in, the usage is the previous usage minus the replaced paths,
// and the failed-connection count is the previous count adjusted by
// the dropped, fresh and re-derived flags. The Result and State are
// bit-identical to rebuilding all of it from scratch. The previous
// State is only read, so concurrent RouteECO calls against one State
// are safe.
//
// An unchanged design (identity map, identical terminals and
// capacities) returns the previous Result and State verbatim. A nil
// oldNet, or an out-of-range or duplicate oldNet entry, is an error.
func RouteECO(ctx context.Context, st *State, nl *place.Netlist, pl *place.Placement, oldNet []int) (*Result, *State, error) {
	rec := obs.From(ctx)
	if st == nil {
		return nil, nil, fmt.Errorf("route: RouteECO needs a previous State")
	}
	if len(pl.Pos) != nl.NumCells() {
		return nil, nil, fmt.Errorf("route: placement for %d cells, netlist has %d", len(pl.Pos), nl.NumCells())
	}
	if oldNet == nil {
		return nil, nil, fmt.Errorf("route: RouteECO needs a net map")
	}
	if len(oldNet) != len(nl.Nets) {
		return nil, nil, fmt.Errorf("route: net map has %d entries, netlist has %d nets", len(oldNet), len(nl.Nets))
	}
	// newOf inverts oldNet: the net each previous net became, or -1
	// for a removed one.
	identity := len(nl.Nets) == len(st.netID)
	newOf := make([]int, len(st.netID))
	for o := range newOf {
		newOf[o] = -1
	}
	for ni, o := range oldNet {
		identity = identity && o == ni
		if o < 0 {
			continue
		}
		if o >= len(st.netID) {
			return nil, nil, fmt.Errorf("route: net %d maps to previous net %d of %d", ni, o, len(st.netID))
		}
		if newOf[o] >= 0 {
			return nil, nil, fmt.Errorf("route: previous net %d is mapped twice", o)
		}
		newOf[o] = ni
	}
	opts := st.opts
	_, gridSpan := rec.StartSpan(ctx, "route.grid")
	density, err := cellDensity(nl, pl, st.layout, opts)
	if err != nil {
		gridSpan.End(err)
		return nil, nil, err
	}
	g, err := NewGrid(st.layout, opts, density)
	if err != nil {
		gridSpan.End(err)
		return nil, nil, err
	}
	gridSpan.End(nil)
	if g.NX != st.grid.NX || g.NY != st.grid.NY {
		// The grid derives from st.layout and st.opts alone, so its
		// size cannot change between the routings.
		return nil, nil, fmt.Errorf("route: ECO grid %dx%d, previous grid %dx%d", g.NX, g.NY, st.grid.NX, st.grid.NY)
	}

	// New nets and nets whose terminals changed are ripped directly;
	// their neighbors are not — any conflict a changed net's new path
	// or a capacity shift under a moved cell causes is exactly what the
	// post-rip negotiation resolves.
	_, decSpan := rec.StartSpan(ctx, "route.decompose")
	gcells := cellGCells(g, pl)
	changed, changedTerms := st.terminals(g, nl, pl, gcells, oldNet)
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
	e := st.successor(g, nl, gcells, oldNet, newOf, rip, changed, changedTerms, rec)
	// Persist the negotiated history — the learned congestion map — so
	// rerouting resumes rather than relearns. The usage starts as the
	// previous usage minus every replaced path (the ripped and removed
	// nets'): usage is integer-valued, so the subtraction is exact.
	g.copyHistoryFrom(st.grid)
	g.copyUsageFrom(st.grid)
	for _, id := range e.cut {
		for _, ed := range st.segs.at(id).path {
			g.addUsage(ed, -1)
		}
	}
	decSpan.End(nil)

	rec.Add("route.nets", int64(len(nl.Nets)))
	rec.Add("route.segments", int64(len(e.next.order)))
	rec.Add("eco.route_nets_ripped", int64(len(changed)))
	rec.Add("eco.route_nets_kept", int64(len(nl.Nets)-len(changed)))

	r := newRouter(g, opts)
	// Residual overflow the baseline negotiation already settled for is
	// not this edit's problem (floorGrid), and kept nets' paths are
	// never ripped: the router sees only the fresh segments, in
	// canonical order, so the rounds below only rework the edited nets
	// against each other.
	r.floorGrid = st.grid
	// Ripped segments maze-route directly — serially, in canonical
	// order, against the kept usage and the persisted history — instead
	// of the from-scratch flow's pattern-route first pass. An L-shape
	// through the design's settled hot spots would push saturated edges
	// over their floor and drag their every co-user into the
	// negotiation; the maze reads the congestion and threads around
	// them, so the rounds below have little or nothing left to fix.
	_, fpSpan := rec.StartSpan(ctx, "route.first_pass")
	check := cancelChecker{ctx: ctx}
	s := r.scratch.Get().(*mazeScratch)
	for i := range e.fresh {
		if err := check.tick(); err != nil {
			err = fmt.Errorf("route: canceled: %w", err)
			fpSpan.End(err)
			return nil, nil, err
		}
		r.reroute(s, &e.fresh[i])
	}
	r.scratch.Put(s)
	fpSpan.End(nil)
	rounds, err := r.negotiate(ctx, rec, e.fresh)
	if err != nil {
		return nil, nil, err
	}
	_, colSpan := rec.StartSpan(ctx, "route.collect")
	next := e.collect(oldNet, rip, rounds)
	colSpan.End(nil)
	if rec != nil {
		recordRouteMetrics(rec, nl, pl, g, next.res)
	}
	return next.res, next, nil
}

// terminals returns the nets that are new or whose terminals differ
// from their previous net's, ascending, with each one's terminal
// gcells in a slice of its own. gcells holds each cell's gcell on pl.
// An aligned net whose pins lie in the gcells the previous net's did,
// in the same order, has the previous terminals and is not re-derived.
func (st *State) terminals(g *Grid, nl *place.Netlist, pl *place.Placement, gcells []int32, oldNet []int) ([]int, [][][2]int) {
	var changed []int
	var terms [][][2]int
	var ptsBuf [][2]int
	for ni := range nl.Nets {
		o := oldNet[ni]
		if o >= 0 && samePins(&nl.Nets[ni], gcells, &st.nl.Nets[o], st.cellGCell) {
			continue
		}
		pts := terminalCells(g, nl, pl, ni, ptsBuf[:0])
		ptsBuf = pts
		if o >= 0 && equalTerms(st.nets.at(st.netID[o]).terms, pts) {
			continue
		}
		changed = append(changed, ni)
		terms = append(terms, slices.Clone(pts))
	}
	return changed, terms
}

// samePins reports whether nets a and b have their cell pins in the
// same gcells (agc and bgc index each side's cell gcells) in the same
// order, and identical pads — which makes their terminals identical.
func samePins(a *place.Net, agc []int32, b *place.Net, bgc []int32) bool {
	if len(a.Cells) != len(b.Cells) || len(a.Pads) != len(b.Pads) {
		return false
	}
	for k, c := range a.Cells {
		if agc[c] != bgc[b.Cells[k]] {
			return false
		}
	}
	for k, p := range a.Pads {
		if p != b.Pads[k] {
			return false
		}
	}
	return true
}

// stateEdit is a successor State while RouteECO builds it: the chunk
// tables it writes through, and the fresh segments it routes.
type stateEdit struct {
	prev, next *State
	segs       cowEdit[segRec]
	segLen     cowEdit[float64]
	failed     cowEdit[bool]
	nets       cowEdit[netRec]
	// fresh holds the ripped nets' segments in canonical order, with
	// their nets' indices in next, and ids their segment IDs.
	fresh []twoPin
	ids   []int32
	// cut lists the IDs of prev's segments the edit drops, the ripped
	// and removed nets', and cutFailed counts their failed flags.
	cut       []int32
	cutFailed int
}

// successor starts st's successor for the edited design: kept nets
// keep their net and segment IDs, removed nets free theirs, and each
// ripped net (rip, indexed like nl's nets; changed lists them with
// their terminals) is decomposed afresh, reusing its previous segment
// IDs before taking free ones. The canonical order is then built as
// sortSegs would build it.
//
// When the kept nets keep their relative order, so do their segments,
// and st's order with the ripped and removed nets' segments cut out is
// already the kept segments' canonical order: each fresh segment is
// merged in where a binary search on (length, emission order) puts it.
// Otherwise the order is rebuilt in emission order and sorted in full,
// counted on "eco.route_sort_full".
func (st *State) successor(g *Grid, nl *place.Netlist, gcells []int32, oldNet, newOf []int, rip []bool, changed []int, changedTerms [][][2]int, rec *obs.Recorder) *stateEdit {
	next := &State{layout: st.layout, opts: st.opts, grid: g, netID: make([]int32, len(oldNet)),
		segIDs: st.segIDs, netIDs: st.netIDs, freeSegs: slices.Clone(st.freeSegs), freeNets: slices.Clone(st.freeNets),
		nl: nl, cellGCell: gcells}
	e := &stateEdit{prev: st, next: next, segs: st.segs.edit(), segLen: st.segLen.edit(), failed: st.failed.edit(), nets: st.nets.edit()}
	// cut marks the segment IDs of the ripped and removed nets, which
	// leave st's order.
	cut := make([]uint64, (st.segIDs+63)/64)
	for o, ni := range newOf {
		if ni >= 0 && !rip[ni] {
			continue
		}
		nr := st.nets.at(st.netID[o])
		for _, id := range nr.segs {
			cut[id>>6] |= 1 << (id & 63)
			if *st.failed.at(id) {
				e.cutFailed++
			}
		}
		e.cut = append(e.cut, nr.segs...)
		if ni < 0 {
			next.freeNets = append(next.freeNets, st.netID[o])
			next.freeSegs = append(next.freeSegs, nr.segs...)
		}
	}
	for ni, o := range oldNet {
		if o >= 0 {
			next.netID[ni] = st.netID[o]
		}
	}
	var fresh []twoPin
	var freshID []int32
	for j, ni := range changed {
		var old []int32
		if oldNet[ni] >= 0 {
			old = st.nets.at(next.netID[ni]).segs
		} else {
			next.netID[ni] = takeID(&next.freeNets, &next.netIDs)
		}
		pairs := mstPairs(g, changedTerms[j])
		var ids []int32
		if len(pairs) > 0 {
			ids = make([]int32, len(pairs))
		}
		for k, pr := range pairs {
			if k < len(old) {
				ids[k] = old[k]
			} else {
				ids[k] = takeID(&next.freeSegs, &next.segIDs)
			}
			fresh = append(fresh, twoPin{net: ni, a: pr[0], b: pr[1]})
			freshID = append(freshID, ids[k])
		}
		if len(old) > len(pairs) {
			next.freeSegs = append(next.freeSegs, old[len(pairs):]...)
		}
		e.nets.set(next.netID[ni], netRec{terms: changedTerms[j], segs: ids})
	}

	monotone := true
	last := -1
	for ni, o := range oldNet {
		if !rip[ni] {
			monotone = monotone && o > last
			last = o
		}
	}
	total := len(st.order) - len(e.cut) + len(fresh)
	if monotone {
		e.merge(oldNet, rip, fresh, freshID, cut, total)
	} else {
		rec.Add("eco.route_sort_full", 1)
		e.resort(oldNet, rip, fresh, freshID, total)
	}
	return e
}

// takeID returns the last ID of free, removing it, or the next ID of
// the space of size n, growing it.
func takeID(free *[]int32, n *int32) int32 {
	if k := len(*free); k > 0 {
		id := (*free)[k-1]
		*free = (*free)[:k-1]
		return id
	}
	*n++
	return *n - 1
}

// merge is successor's common case: prev's order with the cut segment
// IDs dropped and the fresh segments (in emission order, with IDs
// freshID) inserted at their canonical slots.
func (e *stateEdit) merge(oldNet []int, rip []bool, fresh []twoPin, freshID []int32, cut []uint64, total int) {
	prev := e.prev
	// Fresh segments in canonical order among themselves: longest
	// first, ties in emission order.
	ord := make([]int, len(fresh))
	for j := range ord {
		ord[j] = j
	}
	slices.SortStableFunc(ord, func(x, y int) int { return cmp.Compare(fresh[y].length(), fresh[x].length()) })
	// A fresh segment of net ni goes before a kept one that is shorter,
	// or equally long and of a later net: a previous net at or past
	// thr[ni], the previous index of the first kept net after ni.
	thr := make(map[int]int, len(fresh))
	after := math.MaxInt
	for ni := len(oldNet) - 1; ni >= 0; ni-- {
		if !rip[ni] {
			after = oldNet[ni]
		} else {
			thr[ni] = after
		}
	}
	at := make([]int, len(ord)) // prev slot each fresh segment goes before
	if len(ord) > 0 {
		prevIdx := make([]int32, prev.netIDs) // previous net index by net ID
		for o, id := range prev.netID {
			prevIdx[id] = int32(o)
		}
		for j, fj := range ord {
			f := &fresh[fj]
			l, t := f.length(), thr[f.net]
			at[j] = sort.Search(len(prev.order), func(si int) bool {
				old := prev.segs.at(prev.order[si])
				ol := old.length()
				return ol < l || (ol == l && int(prevIdx[old.net]) >= t)
			})
		}
	}
	order := make([]int32, 0, total)
	e.fresh = make([]twoPin, len(ord))
	e.ids = make([]int32, len(ord))
	ai := 0
	insert := func() {
		e.fresh[ai], e.ids[ai] = fresh[ord[ai]], freshID[ord[ai]]
		order = append(order, e.ids[ai])
		ai++
	}
	for si, id := range prev.order {
		for ai < len(at) && at[ai] == si {
			insert()
		}
		if cut[id>>6]&(1<<(id&63)) == 0 {
			order = append(order, id)
		}
	}
	for ai < len(at) {
		insert()
	}
	e.next.order = order
}

// resort is successor's general case: the segment IDs in emission
// order — kept nets' previous segments, ripped nets' fresh ones —
// sorted in full.
func (e *stateEdit) resort(oldNet []int, rip []bool, fresh []twoPin, freshID []int32, total int) {
	prev, next := e.prev, e.next
	ids := make([]int32, 0, total)
	slots := make([]int, 0, total) // each segment's length, then its slot
	fslot := make([]int, len(fresh))
	fi := 0
	for ni := range oldNet {
		if !rip[ni] {
			for _, id := range prev.nets.at(next.netID[ni]).segs {
				ids = append(ids, id)
				slots = append(slots, prev.segs.at(id).length())
			}
			continue
		}
		for ; fi < len(fresh) && fresh[fi].net == ni; fi++ {
			fslot[fi] = len(ids)
			ids = append(ids, freshID[fi])
			slots = append(slots, fresh[fi].length())
		}
	}
	lengthSlots(slots)
	next.order = make([]int32, len(ids))
	for i, slot := range slots {
		next.order[slot] = ids[i]
	}
	ord := make([]int, len(fresh))
	for j := range ord {
		ord[j] = j
		fslot[j] = slots[fslot[j]]
	}
	slices.SortFunc(ord, func(x, y int) int { return cmp.Compare(fslot[x], fslot[y]) })
	e.fresh = make([]twoPin, len(ord))
	e.ids = make([]int32, len(ord))
	for j, fj := range ord {
		e.fresh[j], e.ids[j] = fresh[fj], freshID[fj]
	}
}

// copyUsageFrom copies o's edge usage onto g. Grids must have
// identical dimensions.
func (g *Grid) copyUsageFrom(o *Grid) {
	for y := 0; y < g.NY; y++ {
		copy(g.usageH[y], o.usageH[y])
		copy(g.usageV[y], o.usageV[y])
	}
}

// collect finishes the successor once its fresh segments are routed:
// it stores their records, lengths and failure flags, re-derives the
// failure flag of every kept segment whose territory holds an edge
// whose overflow state changed, and assembles the Result — the figures
// collectResult derives, summed in the same canonical order. oldNet
// and rip relate the nets to prev's: a kept net keeps prev's net
// length, which summed the same lengths in the same order, and the
// failed connections are prev's, less the dropped segments' and
// adjusted by every flag written.
func (e *stateEdit) collect(oldNet []int, rip []bool, rounds int) *State {
	prev, st := e.prev, e.next
	g := st.grid
	res := &Result{Grid: g, NetLength: make([]float64, len(oldNet)), RipupRounds: rounds}
	for ni, o := range oldNet {
		if !rip[ni] {
			res.NetLength[ni] = prev.res.NetLength[o]
		}
	}
	failed := prev.res.FailedConnections - e.cutFailed
	for j := range e.fresh {
		sg, id := &e.fresh[j], e.ids[j]
		l, f := pathStats(g, sg.path)
		e.segs.set(id, segRec{
			a:    [2]int32{int32(sg.a[0]), int32(sg.a[1])},
			b:    [2]int32{int32(sg.b[0]), int32(sg.b[1])},
			net:  st.netID[sg.net],
			path: sg.path,
		})
		e.segLen.set(id, l)
		e.failed.set(id, f)
		res.NetLength[sg.net] += l
		if f {
			failed++
		}
	}
	// A kept segment's failure flag can change only if its path runs
	// through an edge whose overflow state flipped, and a path stays in
	// its segment's territory. Re-deriving a fresh segment's flag finds
	// the one just stored.
	flips := overflowFlips(prev.grid, g)
	for _, id := range st.order {
		res.WireLength += *e.segLen.at(id)
		if flips.n == 0 {
			continue
		}
		sg := e.segs.at(id)
		if !flips.hit(g.territory([2]int{int(sg.a[0]), int(sg.a[1])}, [2]int{int(sg.b[0]), int(sg.b[1])})) {
			continue
		}
		if _, f := pathStats(g, sg.path); f != *e.failed.at(id) {
			e.failed.set(id, f)
			if f {
				failed++
			} else {
				failed--
			}
		}
	}
	res.FailedConnections = failed
	gridTotals(g, res)
	st.segs, st.segLen, st.failed, st.nets = e.segs.cow, e.segLen.cow, e.failed.cow, e.nets.cow
	st.res = res
	return st
}

// flipCount counts the grid edges whose overflow state (over capacity
// or not) differs between two grids, each edge counted at the gcell it
// leaves: n in all, within box, and as a 2-D prefix sum.
type flipCount struct {
	n   int
	box gridRect
	nx  int
	sum []int // sum[y*(nx+1)+x] counts the flips at gcells [0,x)×[0,y)
}

// overflowFlips counts the edges over capacity in exactly one of a and
// b (grids of identical dimensions).
func overflowFlips(a, b *Grid) flipCount {
	f := flipCount{nx: b.NX, sum: make([]int, (b.NX+1)*(b.NY+1))}
	w := b.NX + 1
	for y := 0; y < b.NY; y++ {
		row := 0
		for x := 0; x < b.NX; x++ {
			flips := 0
			if (a.usageH[y][x] > a.capH[y][x]) != (b.usageH[y][x] > b.capH[y][x]) {
				flips++
			}
			if (a.usageV[y][x] > a.capV[y][x]) != (b.usageV[y][x] > b.capV[y][x]) {
				flips++
			}
			if flips > 0 {
				c := gridRect{X0: x, Y0: y, X1: x, Y1: y}
				if f.n == 0 {
					f.box = c
				} else {
					f.box = f.box.union(c)
				}
				f.n += flips
				row += flips
			}
			f.sum[(y+1)*w+x+1] = f.sum[y*w+x+1] + row
		}
	}
	return f
}

// hit reports whether some flipped edge leaves a gcell of r.
func (f flipCount) hit(r gridRect) bool {
	if r.X1 < f.box.X0 || r.X0 > f.box.X1 || r.Y1 < f.box.Y0 || r.Y0 > f.box.Y1 {
		return false
	}
	w := f.nx + 1
	return f.sum[(r.Y1+1)*w+r.X1+1]-f.sum[r.Y0*w+r.X1+1]-f.sum[(r.Y1+1)*w+r.X0]+f.sum[r.Y0*w+r.X0] > 0
}
