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

// State captures a completed routing for incremental reuse: the
// settled grid (usage and negotiation history), every segment's final
// path, length and failure flag, the per-net terminal gcells the next
// routing is diffed against, and the netlist and cell gcells they were
// derived from. A State holds no array of the State it was rerouted
// from, so a chain that keeps only its latest State frees the rest.
type State struct {
	layout place.Layout
	opts   Options // defaulted
	grid   *Grid
	segs   []twoPin
	// segsOfNet[ni] indexes segs for net ni, in mstPairs order.
	segsOfNet [][]int
	// netTerms[ni] is net ni's deduped terminal gcells.
	netTerms [][][2]int
	// segLen[i] is segs[i]'s routed length (µm) summed in path order,
	// and segFailed[i] whether its path crosses an over-capacity edge
	// of grid: what collectResult derives per segment.
	segLen    []float64
	segFailed []bool
	// nl is the routed netlist (not to be mutated afterwards), and
	// cellGCell[c] the gcell index (y*NX + x) cell c was placed in.
	nl        *place.Netlist
	cellGCell []int32
	res       *Result
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
// The bookkeeping scales with the edit, not the design: an aligned net
// whose pins lie in the gcells the previous net's did keeps its
// terminals without re-deriving them, the canonical segment order is the
// previous order with the ripped nets' fresh segments merged in, the
// usage is the previous usage minus the replaced paths, and the
// Result carries each kept segment's length and failure flag over
// unless an edge in its territory changed overflow state. The Result
// and State are bit-identical to rebuilding all of it from scratch.
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
	identity := len(nl.Nets) == len(st.netTerms)
	newOf := make([]int, len(st.netTerms))
	for o := range newOf {
		newOf[o] = -1
	}
	for ni, o := range oldNet {
		identity = identity && o == ni
		if o < 0 {
			continue
		}
		if o >= len(st.netTerms) {
			return nil, nil, fmt.Errorf("route: net %d maps to previous net %d of %d", ni, o, len(st.netTerms))
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
	terms, changed := st.terminals(g, nl, pl, gcells, oldNet)
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
	next := &State{layout: st.layout, opts: opts, grid: g, netTerms: terms, nl: nl, cellGCell: gcells}
	eligible := next.reorder(st, g, oldNet, newOf, rip, rec)
	segs := next.segs
	// Persist the negotiated history — the learned congestion map — so
	// rerouting resumes rather than relearns. The usage starts as the
	// previous usage minus every replaced path (the ripped and removed
	// nets'): usage is integer-valued, so the subtraction is exact.
	g.copyHistoryFrom(st.grid)
	g.copyUsageFrom(st.grid)
	for o, ni := range newOf {
		if ni >= 0 && !rip[ni] {
			continue
		}
		for _, si := range st.segsOfNet[o] {
			for _, e := range st.segs[si].path {
				g.addUsage(e, -1)
			}
		}
	}
	decSpan.End(nil)

	rec.Add("route.nets", int64(len(nl.Nets)))
	rec.Add("route.segments", int64(len(segs)))
	rec.Add("eco.route_nets_ripped", int64(len(changed)))
	rec.Add("eco.route_nets_kept", int64(len(nl.Nets)-len(changed)))

	r := newRouter(g, opts)
	// Residual overflow the baseline negotiation already settled for is
	// not this edit's problem (floorGrid), and kept nets' paths are
	// never ripped (eligible): the rounds below only rework the edited
	// nets against each other.
	r.floorGrid = st.grid
	r.eligible = eligible
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
	for _, i := range eligible {
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
	_, colSpan := rec.StartSpan(ctx, "route.collect")
	next.res = next.collect(st, eligible, oldNet, rip, rounds)
	colSpan.End(nil)
	if rec != nil {
		recordRouteMetrics(rec, nl, pl, g, next.res)
	}
	return next.res, next, nil
}

// terminals returns every net's terminal gcells, in one backing array
// of its own, and the nets that are new or whose terminals differ from
// their previous net's. gcells holds each cell's gcell on pl. An
// aligned net whose pins lie in the gcells the previous net's did, in
// the same order, has the previous terminals: they are copied instead
// of re-derived.
func (st *State) terminals(g *Grid, nl *place.Netlist, pl *place.Placement, gcells []int32, oldNet []int) ([][][2]int, []int) {
	// Size the backing array for the previous terminals plus slack; an
	// edit that adds more grows it once.
	n := 0
	for _, pts := range st.netTerms {
		n += len(pts)
	}
	nt := netTerminals{flat: make([][2]int, 0, n+64), end: make([]int, 0, len(nl.Nets))}
	var changed []int
	var ptsBuf [][2]int
	for ni := range nl.Nets {
		o := oldNet[ni]
		if o >= 0 && samePins(&nl.Nets[ni], gcells, &st.nl.Nets[o], st.cellGCell) {
			nt.add(st.netTerms[o])
			continue
		}
		pts := terminalCells(g, nl, pl, ni, ptsBuf[:0])
		ptsBuf = pts
		nt.add(pts)
		if o < 0 || !equalTerms(st.netTerms[o], pts) {
			changed = append(changed, ni)
		}
	}
	return nt.perNet(), changed
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

// reorder fills st's segment list for the edited design in the
// canonical order (sortSegs'), with each net's slots in mstPairs order:
// kept nets take prev's segments, paths, lengths and failure flags,
// ripped nets (rip, indexed like st's nets) are decomposed afresh over
// st.netTerms and start pathless. It returns the fresh segments'
// slots, ascending and non-nil (a nil list would make every segment
// eligible for rip-up).
//
// When the kept nets keep their relative order, so do their segments,
// and prev's sorted list with the ripped and removed nets' segments
// cut out is already the kept segments' canonical order: it is copied
// in runs, and each fresh segment is inserted where a binary search on
// (length, emission order) puts it. Otherwise the list is rebuilt in
// emission order and sorted in full, counted on "eco.route_sort_full".
func (st *State) reorder(prev *State, g *Grid, oldNet, newOf []int, rip []bool, rec *obs.Recorder) []int {
	terms := st.netTerms
	// A spanning tree over n terminals has n-1 edges, which sizes each
	// net's slot window exactly.
	total := 0
	for _, pts := range terms {
		total += max(len(pts)-1, 0)
	}
	var fresh []twoPin
	var freshK []int // fresh[j] is segment freshK[j] of its net
	monotone, relabel := true, false
	last := -1
	for ni, o := range oldNet {
		if !rip[ni] {
			monotone = monotone && o > last
			relabel = relabel || o != ni
			last = o
			continue
		}
		if pts := terms[ni]; len(pts) >= 2 {
			for k, pr := range mstPairs(g, pts) {
				fresh = append(fresh, twoPin{net: ni, a: pr[0], b: pr[1]})
				freshK = append(freshK, k)
			}
		}
	}
	st.segLen = make([]float64, total)
	st.segFailed = make([]bool, total)
	if !monotone {
		rec.Add("eco.route_sort_full", 1)
		return st.resort(prev, oldNet, rip, fresh, total)
	}
	st.segs = make([]twoPin, total)

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
	for j, fj := range ord {
		f := &fresh[fj]
		l, t := f.length(), thr[f.net]
		at[j] = sort.Search(len(prev.segs), func(si int) bool {
			old := &prev.segs[si]
			ol := old.length()
			return ol < l || (ol == l && old.net >= t)
		})
	}
	// The ripped and removed nets' previous segments are cut out.
	var cut []int
	for o, ni := range newOf {
		if ni < 0 || rip[ni] {
			cut = append(cut, prev.segsOfNet[o]...)
		}
	}
	slices.Sort(cut)

	newSlot := make([]int32, len(prev.segs))
	eligible := make([]int, 0, len(fresh))
	slotOf := make([]int, len(fresh)) // fresh[j]'s slot
	dst := 0
	copyRun := func(lo, hi int) {
		n := copy(st.segs[dst:], prev.segs[lo:hi])
		copy(st.segLen[dst:], prev.segLen[lo:hi])
		copy(st.segFailed[dst:], prev.segFailed[lo:hi])
		for k := 0; k < n; k++ {
			newSlot[lo+k] = int32(dst + k)
			if relabel {
				st.segs[dst+k].net = newOf[st.segs[dst+k].net]
			}
		}
		dst += n
	}
	si, ai, ci := 0, 0, 0
	for {
		stop := len(prev.segs)
		if ai < len(at) {
			stop = min(stop, at[ai])
		}
		if ci < len(cut) {
			stop = min(stop, cut[ci])
		}
		copyRun(si, stop)
		si = stop
		switch {
		case ai < len(at) && at[ai] == stop:
			st.segs[dst] = fresh[ord[ai]]
			slotOf[ord[ai]] = dst
			eligible = append(eligible, dst)
			dst++
			ai++
		case ci < len(cut) && cut[ci] == stop:
			si++
			ci++
		default:
			// Past the last cut and insertion: the copy reached the end.
			return st.slotWindows(prev, oldNet, rip, newSlot, fresh, freshK, slotOf, eligible)
		}
	}
}

// slotWindows fills st.segsOfNet: kept nets map their previous slots
// through newSlot, ripped nets take their fresh segments' slots. It
// returns eligible.
func (st *State) slotWindows(prev *State, oldNet []int, rip []bool, newSlot []int32, fresh []twoPin, freshK, slotOf, eligible []int) []int {
	flat := make([]int, len(st.segs))
	st.segsOfNet = make([][]int, len(st.netTerms))
	start := 0
	for ni, pts := range st.netTerms {
		n := max(len(pts)-1, 0)
		w := flat[start : start+n : start+n]
		start += n
		st.segsOfNet[ni] = w
		if !rip[ni] {
			for k, si := range prev.segsOfNet[oldNet[ni]] {
				w[k] = int(newSlot[si])
			}
		}
	}
	for j := range fresh {
		st.segsOfNet[fresh[j].net][freshK[j]] = slotOf[j]
	}
	return eligible
}

// resort is reorder's general case: the segment list in emission order
// — kept nets' previous segments, ripped nets' fresh ones — sorted in
// full.
func (st *State) resort(prev *State, oldNet []int, rip []bool, fresh []twoPin, total int) []int {
	segs := make([]twoPin, 0, total)
	src := make([]int, 0, total) // prev slot of each segment, -1 if fresh
	fi := 0
	for ni := range st.netTerms {
		if rip[ni] {
			for ; fi < len(fresh) && fresh[fi].net == ni; fi++ {
				segs = append(segs, fresh[fi])
				src = append(src, -1)
			}
			continue
		}
		for _, si := range prev.segsOfNet[oldNet[ni]] {
			old := &prev.segs[si]
			segs = append(segs, twoPin{net: ni, a: old.a, b: old.b, path: old.path})
			src = append(src, si)
		}
	}
	sorted, slots := sortSegs(segs)
	st.segs = sorted
	st.segsOfNet = netSlots(segs, slots, len(st.netTerms))
	from := make([]int, len(segs))
	for i, slot := range slots {
		from[slot] = src[i]
	}
	eligible := []int{}
	for i, si := range from {
		if si < 0 {
			eligible = append(eligible, i)
			continue
		}
		st.segLen[i], st.segFailed[i] = prev.segLen[si], prev.segFailed[si]
	}
	return eligible
}

// copyUsageFrom copies o's edge usage onto g. Grids must have
// identical dimensions.
func (g *Grid) copyUsageFrom(o *Grid) {
	for y := 0; y < g.NY; y++ {
		copy(g.usageH[y], o.usageH[y])
		copy(g.usageV[y], o.usageV[y])
	}
}

// collect assembles st's Result from its settled grid and segments —
// the figures collectResult derives, summed in the same canonical
// order — and fills in the fresh segments' lengths and failure flags.
// eligible lists the fresh segments, ascending; oldNet and rip relate
// st's nets to prev's. Every other segment carries prev's length, and
// prev's failure flag unless an edge whose overflow state changed lies
// in its territory; a kept net keeps prev's net length, which summed
// the same lengths in the same order.
func (st *State) collect(prev *State, eligible, oldNet []int, rip []bool, rounds int) *Result {
	g := st.grid
	res := &Result{Grid: g, NetLength: make([]float64, len(oldNet)), RipupRounds: rounds}
	for ni, o := range oldNet {
		if !rip[ni] {
			res.NetLength[ni] = prev.res.NetLength[o]
		}
	}
	for _, i := range eligible {
		st.segLen[i], st.segFailed[i] = pathStats(g, st.segs[i].path)
		res.NetLength[st.segs[i].net] += st.segLen[i]
	}
	if flips := overflowFlips(prev.grid, g); flips.n > 0 {
		e := 0
		for i := range st.segs {
			if e < len(eligible) && eligible[e] == i {
				e++
				continue
			}
			if sg := &st.segs[i]; flips.hit(g.territory(sg.a, sg.b)) {
				_, st.segFailed[i] = pathStats(g, sg.path)
			}
		}
	}
	for i, l := range st.segLen {
		if st.segFailed[i] {
			res.FailedConnections++
		}
		res.WireLength += l
	}
	gridTotals(g, res)
	return res
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
