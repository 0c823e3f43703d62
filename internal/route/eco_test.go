package route

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/obs"
	"casyn/internal/place"
)

// ecoDesign builds a deterministic random multi-net design on the
// standard 200×100 test die. Nets are spatially local — each draws
// its 2–4 dedicated cells inside a small random box — so a single
// moved cell dirties only part of the grid and the territory-
// intersection invariant has clean nets to observe. Lightly loaded,
// so the post-ECO negotiation has nothing to do and the kept-path
// invariant is directly observable.
func ecoDesign(t *testing.T, nets int, seed int64) (*place.Netlist, *place.Placement, place.Layout) {
	t.Helper()
	layout := testLayout(t)
	rng := rand.New(rand.NewSource(seed))
	nl := &place.Netlist{}
	pl := &place.Placement{}
	for n := 0; n < nets; n++ {
		k := 2 + rng.Intn(3)
		cx := rng.Float64() * (layout.Die.W() - 30)
		cy := rng.Float64() * (layout.Die.H() - 20)
		var members []int
		for i := 0; i < k; i++ {
			c := len(nl.Widths)
			nl.Widths = append(nl.Widths, 2)
			p := geom.Pt(cx+rng.Float64()*30, cy+rng.Float64()*20)
			pl.Pos = append(pl.Pos, p)
			pl.Row = append(pl.Row, layout.RowOf(p.Y))
			members = append(members, c)
		}
		nl.Nets = append(nl.Nets, place.Net{Cells: members})
	}
	return nl, pl, layout
}

func ecoOpts() Options {
	// Generous capacity: the invariants below need a congestion-free
	// design so rip-up rounds stay at zero and kept paths are
	// observable verbatim.
	return Options{GCellSize: 10, RipupIterations: 4, CapacityScale: 4}
}

// usageFromPaths recomputes what the grid's edge usage must be from
// the captured segments' final paths.
func usageFromPaths(segs []twoPin) map[edge]float64 {
	u := make(map[edge]float64)
	for i := range segs {
		for _, e := range segs[i].path {
			u[e]++
		}
	}
	return u
}

// intersects reports whether two grid rectangles share a cell.
func (r gridRect) intersects(o gridRect) bool {
	return r.X0 <= o.X1 && o.X0 <= r.X1 && r.Y0 <= o.Y1 && o.Y0 <= r.Y1
}

// termTerritory is a net's territory: the bounding box of its terminal
// gcells expanded by mazeHalo — the multi-terminal generalization of
// Grid.territory, and exactly the union of its segments' territories.
func termTerritory(g *Grid, pts [][2]int) gridRect {
	r := gridRect{X0: pts[0][0], Y0: pts[0][1], X1: pts[0][0], Y1: pts[0][1]}
	for _, p := range pts[1:] {
		r = r.union(gridRect{X0: p[0], Y0: p[1], X1: p[0], Y1: p[1]})
	}
	r.X0 = clampInt(r.X0-mazeHalo, 0, g.NX-1)
	r.Y0 = clampInt(r.Y0-mazeHalo, 0, g.NY-1)
	r.X1 = clampInt(r.X1+mazeHalo, 0, g.NX-1)
	r.Y1 = clampInt(r.Y1+mazeHalo, 0, g.NY-1)
	return r
}

// identityNets is the net map of an edit that keeps every net's index.
func identityNets(nl *place.Netlist) []int {
	m := make([]int, len(nl.Nets))
	for i := range m {
		m[i] = i
	}
	return m
}

// stateView is a State flattened into canonical order, the form the
// tests read: segs[i] is the segment at slot i with its net's index,
// segLen[i] and segFailed[i] its carried length and failure flag,
// segsOfNet[ni] net ni's slots in mstPairs order (-1 for a segment
// missing from the order) and netTerms[ni] its terminals. A segment
// whose net ID no net holds reads net -1.
type stateView struct {
	segs      []twoPin
	segLen    []float64
	segFailed []bool
	segsOfNet [][]int
	netTerms  [][][2]int
}

func (st *State) view() stateView {
	n := len(st.order)
	v := stateView{segs: make([]twoPin, n), segLen: make([]float64, n), segFailed: make([]bool, n),
		segsOfNet: make([][]int, len(st.netID)), netTerms: make([][][2]int, len(st.netID))}
	netOf := make(map[int32]int, len(st.netID))
	for ni, id := range st.netID {
		netOf[id] = ni
	}
	slotOf := make(map[int32]int, n)
	for i, id := range st.order {
		sg := st.segs.at(id)
		ni, ok := netOf[sg.net]
		if !ok {
			ni = -1
		}
		v.segs[i] = twoPin{net: ni, a: [2]int{int(sg.a[0]), int(sg.a[1])}, b: [2]int{int(sg.b[0]), int(sg.b[1])}, path: sg.path}
		v.segLen[i], v.segFailed[i] = *st.segLen.at(id), *st.failed.at(id)
		slotOf[id] = i
	}
	for ni, id := range st.netID {
		nr := st.nets.at(id)
		v.netTerms[ni] = nr.terms
		v.segsOfNet[ni] = make([]int, len(nr.segs))
		for k, sid := range nr.segs {
			slot, ok := slotOf[sid]
			if !ok {
				slot = -1
			}
			v.segsOfNet[ni][k] = slot
		}
	}
	return v
}

// pathsOf returns net ni's segment paths in emission order.
func pathsOf(st *State, ni int) [][]edge {
	v := st.view()
	var out [][]edge
	for _, si := range v.segsOfNet[ni] {
		out = append(out, v.segs[si].path)
	}
	return out
}

func equalPaths(a, b [][]edge) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for j := range a[k] {
			if a[k][j] != b[k][j] {
				return false
			}
		}
	}
	return true
}

// checkUsageMatchesPaths asserts invariant (2) of the RouteECO
// contract: the final grid usage exactly equals the sum of the final
// paths.
func checkUsageMatchesPaths(t *testing.T, st *State) {
	t.Helper()
	want := usageFromPaths(st.view().segs)
	g := st.grid
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			for _, hz := range []bool{true, false} {
				e := edge{x: x, y: y, horizontal: hz}
				got := g.usageV[y][x]
				if hz {
					got = g.usageH[y][x]
				}
				if math.Abs(got-want[e]) > 1e-9 {
					t.Fatalf("edge %+v: grid usage %g, paths sum to %g", e, got, want[e])
				}
			}
		}
	}
}

// TestRouteECOUnchangedReturnsPrevious: an unedited design is a no-op
// — RouteECO hands back the previous Result and State verbatim.
func TestRouteECOUnchangedReturnsPrevious(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 25, 3)
	ctx := context.Background()
	res, st, err := RouteNetlistState(ctx, nl, pl, layout, ecoOpts())
	if err != nil {
		t.Fatal(err)
	}
	res2, st2, err := RouteECO(ctx, st, nl, pl, identityNets(nl))
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res || st2 != st {
		t.Error("unchanged design did not return the previous Result/State verbatim")
	}
}

// TestRouteECOInvariants moves one cell and checks the three
// incremental-reroute guarantees: usage bookkeeping is exact, the
// result matches a full-route summary of consistency (violations
// from its own grid), and only nets whose territory intersects the
// dirtied region changed paths.
func TestRouteECOInvariants(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 25, 7)
	ctx := context.Background()
	res, st, err := RouteNetlistState(ctx, nl, pl, layout, ecoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.RipupRounds != 0 {
		t.Fatalf("design congested (rounds=%d); the kept-path invariant needs a clean baseline", res.RipupRounds)
	}
	checkUsageMatchesPaths(t, st)

	// Nudge one cell across a gcell boundary.
	moved := 11
	pl2 := &place.Placement{Pos: append([]geom.Point(nil), pl.Pos...), Row: append([]int(nil), pl.Row...)}
	pl2.Pos[moved] = pl.Pos[moved].Add(geom.Pt(15, 10))
	if out := layout.Die.Max; pl2.Pos[moved].X > out.X || pl2.Pos[moved].Y > out.Y {
		pl2.Pos[moved] = geom.Pt(pl.Pos[moved].X-15, pl.Pos[moved].Y-10)
	}
	pl2.Row[moved] = layout.RowOf(pl2.Pos[moved].Y)

	res2, st2, err := RouteECO(ctx, st, nl, pl2, identityNets(nl))
	if err != nil {
		t.Fatal(err)
	}
	if res2 == res {
		t.Fatal("a moved cell must produce a new result")
	}
	checkUsageMatchesPaths(t, st2)

	// Independent dirty region: capacity shifts plus old+new
	// territories of every net whose terminals changed.
	g2 := st2.grid
	dirty, anyDirty := capacityDiffRect(st.grid, g2)
	changed := make(map[int]bool)
	v, v2 := st.view(), st2.view()
	for ni := range nl.Nets {
		if equalTerms(v.netTerms[ni], v2.netTerms[ni]) {
			continue
		}
		changed[ni] = true
		for _, terms := range [][][2]int{v.netTerms[ni], v2.netTerms[ni]} {
			if len(terms) == 0 {
				continue
			}
			tr := termTerritory(g2, terms)
			if !anyDirty {
				dirty, anyDirty = tr, true
			} else {
				dirty = dirty.union(tr)
			}
		}
	}
	if !anyDirty {
		t.Fatal("moving a cell across a gcell boundary dirtied nothing; pick a bigger nudge")
	}

	// Invariant (3): with zero rip-up rounds, a net outside the dirty
	// region keeps its exact previous path.
	if res2.RipupRounds != 0 {
		t.Fatalf("post-ECO negotiation ripped (rounds=%d); capacity scale too low for the invariant", res2.RipupRounds)
	}
	cleanNets, changedPaths := 0, 0
	for ni := range nl.Nets {
		if changed[ni] || len(v2.netTerms[ni]) < 2 {
			continue
		}
		if termTerritory(g2, v2.netTerms[ni]).intersects(dirty) {
			continue
		}
		cleanNets++
		if !equalPaths(pathsOf(st, ni), pathsOf(st2, ni)) {
			changedPaths++
		}
	}
	if cleanNets == 0 {
		t.Fatal("every net intersected the dirty region; the invariant was never exercised")
	}
	if changedPaths != 0 {
		t.Errorf("%d of %d nets outside the dirty region changed paths", changedPaths, cleanNets)
	}
}

// TestRouteECOAlignment inserts a net at index 0 (shifting every
// index), removes one, and moves one cell, then checks that only the
// new net and the nets whose terminals changed are ripped, that every
// aligned unchanged net keeps its exact paths, and that the grid usage
// is the sum of the final paths — the removed net's usage gone.
func TestRouteECOAlignment(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 25, 7)
	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	_, st, err := RouteNetlistState(ctx, nl, pl, layout, ecoOpts())
	if err != nil {
		t.Fatal(err)
	}

	const removed, movedCell = 4, 11
	nl2 := &place.Netlist{Widths: nl.Widths, Nets: []place.Net{{Cells: []int{0, 39}}}}
	oldNet := []int{-1}
	for ni, n := range nl.Nets {
		if ni != removed {
			nl2.Nets = append(nl2.Nets, n)
			oldNet = append(oldNet, ni)
		}
	}
	pl2 := &place.Placement{Pos: append([]geom.Point(nil), pl.Pos...), Row: append([]int(nil), pl.Row...)}
	pl2.Pos[movedCell] = pl.Pos[movedCell].Add(geom.Pt(15, 10))
	if out := layout.Die.Max; pl2.Pos[movedCell].X > out.X || pl2.Pos[movedCell].Y > out.Y {
		pl2.Pos[movedCell] = geom.Pt(pl.Pos[movedCell].X-15, pl.Pos[movedCell].Y-10)
	}
	pl2.Row[movedCell] = layout.RowOf(pl2.Pos[movedCell].Y)

	before := rec.Counter("eco.route_nets_ripped").Value()
	_, st2, err := RouteECO(ctx, st, nl2, pl2, oldNet)
	if err != nil {
		t.Fatal(err)
	}
	checkUsageMatchesPaths(t, st2)

	wantRipped, kept := 0, 0
	v, v2 := st.view(), st2.view()
	for ni, o := range oldNet {
		if o < 0 || !equalTerms(v.netTerms[o], v2.netTerms[ni]) {
			wantRipped++
			continue
		}
		kept++
		if !equalPaths(pathsOf(st, o), pathsOf(st2, ni)) {
			t.Errorf("aligned unchanged net %d (was %d) changed paths", ni, o)
		}
	}
	if wantRipped < 2 || kept == 0 {
		t.Fatalf("%d ripped and %d kept nets: the edit must change some nets and keep others", wantRipped, kept)
	}
	if got := rec.Counter("eco.route_nets_ripped").Value() - before; got != int64(wantRipped) {
		t.Errorf("ripped %d nets, want %d (the new net and the changed-terminal nets)", got, wantRipped)
	}
	if len(v2.segsOfNet) != len(nl2.Nets) {
		t.Errorf("state tracks %d nets, netlist has %d", len(v2.segsOfNet), len(nl2.Nets))
	}

	// Malformed maps are refused.
	for name, m := range map[string][]int{
		"short":        oldNet[1:],
		"out of range": append([]int{len(nl.Nets)}, oldNet[1:]...),
		"duplicate":    append([]int{oldNet[1]}, oldNet[1:]...),
	} {
		if _, _, err := RouteECO(ctx, st, nl2, pl2, m); err == nil {
			t.Errorf("%s net map accepted", name)
		}
	}
}

// TestRouteECOFullFallback: without a net map the nets cannot be
// aligned, and RouteECO refuses rather than silently rerouting
// everything.
func TestRouteECOFullFallback(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 25, 11)
	ctx := context.Background()
	_, st, err := RouteNetlistState(ctx, nl, pl, layout, ecoOpts())
	if err != nil {
		t.Fatal(err)
	}
	nl2 := &place.Netlist{Widths: nl.Widths, Nets: append(append([]place.Net(nil), nl.Nets...), place.Net{Cells: []int{0, 39}})}
	if _, _, err := RouteECO(ctx, st, nl2, pl, nil); err == nil {
		t.Error("nil net map did not error")
	}
}

// TestRouteECONilState: a missing baseline is an error, not a crash.
func TestRouteECONilState(t *testing.T) {
	t.Parallel()
	nl, pl, _ := ecoDesign(t, 4, 13)
	if _, _, err := RouteECO(context.Background(), nil, nl, pl, identityNets(nl)); err == nil {
		t.Error("nil state did not error")
	}
}
