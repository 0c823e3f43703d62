package route

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/obs"
	"casyn/internal/place"
)

// referenceRouteECO is the whole-design formulation of RouteECO, the
// oracle the edit-local one must match bit for bit: terminals derived
// for every net, the segment list rebuilt and counting-sorted from
// scratch, the kept paths' usage replayed onto a zeroed grid,
// negotiation over every segment with an eligibility mask, and the
// result collected by walking every path. It reads the previous State
// flattened (stateView) and stores its own as a from-scratch routing
// (newState) without the cell gcells.
func referenceRouteECO(ctx context.Context, st *State, nl *place.Netlist, pl *place.Placement, oldNet []int) (*Result, *State, error) {
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
	prev := st.view()
	identity := len(nl.Nets) == len(prev.netTerms)
	claimed := make([]bool, len(prev.netTerms))
	for ni, o := range oldNet {
		identity = identity && o == ni
		if o < 0 {
			continue
		}
		if o >= len(prev.netTerms) {
			return nil, nil, fmt.Errorf("route: net %d maps to previous net %d of %d", ni, o, len(prev.netTerms))
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
		return nil, nil, fmt.Errorf("route: ECO grid %dx%d, previous grid %dx%d", g.NX, g.NY, st.grid.NX, st.grid.NY)
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
		if o := oldNet[ni]; o < 0 || !equalTerms(prev.netTerms[o], pts) {
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
			for _, si := range prev.segsOfNet[oldNet[ni]] {
				old := &prev.segs[si]
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
	r.eligible = make([]int, 0, len(segs))
	for i, rr := range reroute {
		if rr {
			r.eligible = append(r.eligible, i)
		}
	}
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
	segLen, failed := make([]float64, len(segs)), make([]bool, len(segs))
	res := collectResult(g, nl, segs, rounds, segLen, failed)
	if rec != nil {
		recordRouteMetrics(rec, nl, pl, g, res)
	}
	return res, newState(st.layout, opts, g, segs, segsOfNet, terms, segLen, failed, nl, nil, res), nil
}

// sameFloat compares floats by their bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffGrids describes the first difference between two grids' edge
// capacities, usage and history, compared bitwise.
func diffGrids(a, b *Grid) error {
	if a.NX != b.NX || a.NY != b.NY {
		return fmt.Errorf("grid %dx%d vs %dx%d", a.NX, a.NY, b.NX, b.NY)
	}
	for _, m := range []struct {
		name string
		x, y [][]float64
	}{
		{"capH", a.capH, b.capH}, {"capV", a.capV, b.capV},
		{"usageH", a.usageH, b.usageH}, {"usageV", a.usageV, b.usageV},
		{"histH", a.histH, b.histH}, {"histV", a.histV, b.histV},
	} {
		for y := range m.x {
			for x := range m.x[y] {
				if !sameFloat(m.x[y][x], m.y[y][x]) {
					return fmt.Errorf("%s[%d][%d] %g vs %g", m.name, y, x, m.x[y][x], m.y[y][x])
				}
			}
		}
	}
	return nil
}

// diffRouting describes the first difference between two routings'
// Results and States: segment order, endpoints and paths, slot
// windows, terminals, grids, and every Result figure bit for bit.
func diffRouting(res *Result, st *State, wantRes *Result, want *State) error {
	if res.Overflow != wantRes.Overflow || res.OverflowEdges != wantRes.OverflowEdges ||
		res.FailedConnections != wantRes.FailedConnections || res.RipupRounds != wantRes.RipupRounds ||
		res.CrossRegionNets != wantRes.CrossRegionNets ||
		!sameFloat(res.WireLength, wantRes.WireLength) || !sameFloat(maxCongestion(res.Grid), maxCongestion(wantRes.Grid)) {
		return fmt.Errorf("result %+v, reference %+v", *res, *wantRes)
	}
	if len(res.NetLength) != len(wantRes.NetLength) {
		return fmt.Errorf("%d net lengths, reference %d", len(res.NetLength), len(wantRes.NetLength))
	}
	for ni := range res.NetLength {
		if !sameFloat(res.NetLength[ni], wantRes.NetLength[ni]) {
			return fmt.Errorf("net %d length %g, reference %g", ni, res.NetLength[ni], wantRes.NetLength[ni])
		}
	}
	if res.Grid != st.grid || wantRes.Grid != want.grid {
		return fmt.Errorf("result grid is not the state's grid")
	}
	if err := diffGrids(st.grid, want.grid); err != nil {
		return err
	}
	got, ref := st.view(), want.view()
	if len(got.segs) != len(ref.segs) {
		return fmt.Errorf("%d segments, reference %d", len(got.segs), len(ref.segs))
	}
	for i := range got.segs {
		a, b := &got.segs[i], &ref.segs[i]
		if !sameSeg(a, b) || !equalPaths([][]edge{a.path}, [][]edge{b.path}) {
			return fmt.Errorf("segment %d: net %d %v-%v %v, reference net %d %v-%v %v",
				i, a.net, a.a, a.b, a.path, b.net, b.a, b.b, b.path)
		}
	}
	if len(got.segsOfNet) != len(ref.segsOfNet) || len(got.netTerms) != len(ref.netTerms) {
		return fmt.Errorf("%d/%d nets tracked, reference %d/%d",
			len(got.segsOfNet), len(got.netTerms), len(ref.segsOfNet), len(ref.netTerms))
	}
	for ni := range got.segsOfNet {
		if fmt.Sprint(got.segsOfNet[ni]) != fmt.Sprint(ref.segsOfNet[ni]) {
			return fmt.Errorf("net %d slots %v, reference %v", ni, got.segsOfNet[ni], ref.segsOfNet[ni])
		}
		if !equalTerms(got.netTerms[ni], ref.netTerms[ni]) {
			return fmt.Errorf("net %d terminals %v, reference %v", ni, got.netTerms[ni], ref.netTerms[ni])
		}
	}
	// What the next edit carries over must be what collectResult would
	// derive from the paths on this grid.
	for i := range got.segs {
		l, f := pathStats(st.grid, got.segs[i].path)
		if !sameFloat(got.segLen[i], l) || got.segFailed[i] != f {
			return fmt.Errorf("segment %d carries length %g failed %v, its path has %g %v", i, got.segLen[i], got.segFailed[i], l, f)
		}
	}
	return nil
}

// TestRouteECOMatchesReference chains edits — cell moves, nets
// inserted at random indices, nets removed, and now and then two kept
// nets trading places, which breaks the alignment's order — through
// RouteECO, and checks every step bit for bit against the
// whole-design rebuild it replaced (referenceRouteECO) run on the same
// parent State, on a lightly loaded and on a congested grid, at 1 and
// 2 workers.
func TestRouteECOMatchesReference(t *testing.T) {
	t.Parallel()
	for _, capScale := range []float64{4, 0.1} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("cap=%g/workers=%d", capScale, workers), func(t *testing.T) {
				t.Parallel()
				checkRouteECOReference(t, capScale, workers)
			})
		}
	}
}

func checkRouteECOReference(t *testing.T, capScale float64, workers int) {
	nl, pl, layout := ecoDesign(t, 60, 21)
	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	opts := Options{GCellSize: 10, RipupIterations: 4, CapacityScale: capScale, Workers: workers}
	_, st, err := RouteNetlistState(ctx, nl, pl, layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(31 + workers)))
	rounds, failed := 0, 0
	for step := 0; step < 24; step++ {
		nl2, pl2, oldNet := ecoEdit(rng, step, nl, pl, layout)
		refRec, stepRec := obs.New(), obs.New()
		wantRes, want, err := referenceRouteECO(obs.WithRecorder(ctx, refRec), st, nl2, pl2, oldNet)
		if err != nil {
			t.Fatalf("step %d: reference: %v", step, err)
		}
		res, st2, err := RouteECO(obs.WithRecorder(ctx, stepRec), st, nl2, pl2, oldNet)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rec.Add("eco.route_sort_full", stepRec.Counter("eco.route_sort_full").Value())
		for _, h := range []string{"route.net_hpwl_um", "route.congestion"} {
			if got, want := stepRec.Snapshot().Histograms[h], refRec.Snapshot().Histograms[h]; !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s histogram %+v, reference %+v", step, h, got, want)
			}
		}
		if want == st {
			if res != st.res || st2 != st {
				t.Fatalf("step %d: the reference returned the previous routing, RouteECO did not", step)
			}
		} else if err := diffRouting(res, st2, wantRes, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rounds += res.RipupRounds
		failed += res.FailedConnections
		nl, pl, st = nl2, pl2, st2
	}
	if capScale < 1 && (rounds == 0 || failed == 0) {
		t.Errorf("congested chain ran %d rip-up rounds with %d failed connections; negotiation was not exercised", rounds, failed)
	}
	if rec.Counter("eco.route_sort_full").Value() == 0 {
		t.Error("no step broke the alignment's order; the full sort was not exercised")
	}
}

// ecoEdit derives step's edit of a RouteECO chain from the previous
// design: by step, it drops a net, inserts a new one, swaps two nets'
// order and moves one to three cells. oldNet aligns the edited nets
// with the previous ones.
func ecoEdit(rng *rand.Rand, step int, nl *place.Netlist, pl *place.Placement, layout place.Layout) (*place.Netlist, *place.Placement, []int) {
	nl2 := &place.Netlist{Widths: nl.Widths}
	pl2 := &place.Placement{Pos: append([]geom.Point(nil), pl.Pos...), Row: append([]int(nil), pl.Row...)}
	var oldNet []int
	drop := -1
	if step%4 == 2 {
		drop = rng.Intn(len(nl.Nets))
	}
	for ni, n := range nl.Nets {
		if ni != drop {
			nl2.Nets = append(nl2.Nets, n)
			oldNet = append(oldNet, ni)
		}
	}
	if step%4 == 1 {
		at := rng.Intn(len(nl2.Nets) + 1)
		n := place.Net{Cells: []int{rng.Intn(len(nl.Widths)), rng.Intn(len(nl.Widths))}}
		nl2.Nets = append(nl2.Nets[:at], append([]place.Net{n}, nl2.Nets[at:]...)...)
		oldNet = append(oldNet[:at], append([]int{-1}, oldNet[at:]...)...)
	}
	if step%6 == 5 {
		i, j := rng.Intn(len(nl2.Nets)), rng.Intn(len(nl2.Nets))
		nl2.Nets[i], nl2.Nets[j] = nl2.Nets[j], nl2.Nets[i]
		oldNet[i], oldNet[j] = oldNet[j], oldNet[i]
	}
	if step%4 != 3 {
		for m := 0; m < 1+rng.Intn(3); m++ {
			c := rng.Intn(len(pl2.Pos))
			p := pl2.Pos[c].Add(geom.Pt(rng.Float64()*40-20, rng.Float64()*20-10))
			p.X = math.Min(math.Max(p.X, layout.Die.Min.X), layout.Die.Max.X)
			p.Y = math.Min(math.Max(p.Y, layout.Die.Min.Y), layout.Die.Max.Y)
			pl2.Pos[c] = p
			pl2.Row[c] = layout.RowOf(p.Y)
		}
	}
	return nl2, pl2, oldNet
}

// TestOverflowImpliesFailedConnections pins why Result.Routable reads
// only FailedConnections: every edge capacity is positive and its usage
// is the sum of the routed paths through it, so an over-capacity edge
// carries a path, and that path's segment is a failed connection. It
// checks the implication on a congested from-scratch route and at
// every step of a congested RouteECO chain.
func TestOverflowImpliesFailedConnections(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 60, 21)
	ctx := context.Background()
	opts := Options{GCellSize: 10, RipupIterations: 4, CapacityScale: 0.1}
	res, st, err := RouteNetlistState(ctx, nl, pl, layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow == 0 {
		t.Fatal("the from-scratch route has no overflow; the implication was not exercised")
	}
	check := func(step int, res *Result) {
		t.Helper()
		if (res.Overflow > 0 || res.OverflowEdges > 0) && res.FailedConnections == 0 {
			t.Errorf("step %d: overflow %d on %d edges but no failed connection", step, res.Overflow, res.OverflowEdges)
		}
	}
	check(-1, res)
	rng := rand.New(rand.NewSource(41))
	congested := 0
	for step := 0; step < 24; step++ {
		nl2, pl2, oldNet := ecoEdit(rng, step, nl, pl, layout)
		res, st2, err := RouteECO(ctx, st, nl2, pl2, oldNet)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(step, res)
		if res.Overflow > 0 {
			congested++
		}
		nl, pl, st = nl2, pl2, st2
	}
	if congested == 0 {
		t.Error("no ECO step left overflow; the chain did not exercise the implication")
	}
}

// TestRouteECOConcurrentFromOneParent reroutes eight different edits
// of one parent State on eight goroutines at once, on a congested grid
// and from a parent that is itself a RouteECO successor (so it holds
// shared chunks and free IDs). Every result equals the same edit
// rerouted serially, and afterwards the parent's Result and State
// equal a deep snapshot taken before. Under -race it also proves that
// RouteECO only reads its parent.
func TestRouteECOConcurrentFromOneParent(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 60, 21)
	ctx := context.Background()
	opts := Options{GCellSize: 10, RipupIterations: 4, CapacityScale: 0.1, Workers: 2}
	res, st, err := RouteNetlistState(ctx, nl, pl, layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 3; step++ {
		nl2, pl2, oldNet := ecoEdit(rng, step, nl, pl, layout)
		if res, st, err = RouteECO(ctx, st, nl2, pl2, oldNet); err != nil {
			t.Fatal(err)
		}
		nl, pl = nl2, pl2
	}
	snapRes, snap := snapshotRouting(res, st)

	const n = 8
	type edit struct {
		nl     *place.Netlist
		pl     *place.Placement
		oldNet []int
	}
	edits := make([]edit, n)
	wantRes, want := make([]*Result, n), make([]*State, n)
	for i := range edits {
		e := &edits[i]
		e.nl, e.pl, e.oldNet = ecoEdit(rng, i, nl, pl, layout)
		if wantRes[i], want[i], err = RouteECO(ctx, st, e.nl, e.pl, e.oldNet); err != nil {
			t.Fatal(err)
		}
	}
	gotRes, got, errs := make([]*Result, n), make([]*State, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range edits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &edits[i]
			gotRes[i], got[i], errs[i] = RouteECO(ctx, st, e.nl, e.pl, e.oldNet)
		}()
	}
	wg.Wait()
	for i := range edits {
		if errs[i] != nil {
			t.Fatalf("edit %d: %v", i, errs[i])
		}
		if err := diffRouting(gotRes[i], got[i], wantRes[i], want[i]); err != nil {
			t.Errorf("edit %d: concurrent reroute differs from the serial one: %v", i, err)
		}
	}
	if err := diffRouting(res, st, snapRes, snap); err != nil {
		t.Errorf("the parent changed under its successors: %v", err)
	}
}

// snapshotRouting deep-copies a routing: the grid, the Result and every
// segment path, stored as a from-scratch State of the same content.
func snapshotRouting(res *Result, st *State) (*Result, *State) {
	g := *st.grid
	for _, m := range []*[][]float64{&g.capH, &g.capV, &g.usageH, &g.usageV, &g.histH, &g.histV} {
		rows := make([][]float64, len(*m))
		for y, row := range *m {
			rows[y] = slices.Clone(row)
		}
		*m = rows
	}
	r := *res
	r.Grid = &g
	r.NetLength = slices.Clone(res.NetLength)
	v := st.view()
	for i := range v.segs {
		v.segs[i].path = slices.Clone(v.segs[i].path)
	}
	terms := make([][][2]int, len(v.netTerms))
	for ni, pts := range v.netTerms {
		terms[ni] = slices.Clone(pts)
	}
	return &r, newState(st.layout, st.opts, &g, v.segs, v.segsOfNet, terms, v.segLen, v.segFailed, st.nl, st.cellGCell, &r)
}
