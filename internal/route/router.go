package route

import (
	"context"
	"fmt"
	"math"
	"sync"

	"casyn/internal/geom"
	"casyn/internal/obs"
	"casyn/internal/par"
	"casyn/internal/place"
)

// Histogram bucket bounds for the router's observability metrics. The
// congestion bounds bracket the interesting region around capacity
// (1.0); the HPWL bounds are logarithmic in µm, as are the per-round
// overflow and region-population bounds.
var (
	congestionBounds = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1, 1.25, 1.5, 2}
	hpwlBounds       = []float64{5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	overflowBounds   = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}
	regionSegBounds  = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// cancelCadence is how many inner-loop work items (segments applied or
// rerouted) pass between cooperative ctx checks. Shared by the
// first-pass and rip-up paths — including the per-region workers of
// the parallel negotiation, which each run their own checker — so the
// router's cancellation latency is one cadence of its cheapest unit of
// work no matter which phase is running.
const cancelCadence = 64

// ctxErr returns the router's wrapped error when ctx is done.
func ctxErr(ctx context.Context) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("route: canceled: %w", cerr)
	}
	return nil
}

// cancelChecker amortizes ctx checks over cancelCadence ticks. The
// zero value is not usable; construct with the ctx to watch. tick
// returns the raw ctx error (callers wrap via ctxErr at the phase
// boundary where the error is surfaced).
type cancelChecker struct {
	ctx context.Context
	n   int
}

func (c *cancelChecker) tick() error {
	c.n++
	if c.n%cancelCadence != 0 {
		return nil
	}
	return c.ctx.Err()
}

// Result is a completed global routing.
type Result struct {
	Grid *Grid
	// Overflow is the total track overflow: usage above capacity,
	// summed over every edge and rounded to whole tracks. It is a
	// diagnostic; FailedConnections is the verdict.
	Overflow int
	// OverflowEdges counts distinct over-capacity edges.
	OverflowEdges int
	// FailedConnections counts two-pin route segments whose final path
	// crosses at least one over-capacity edge — the closest analogue
	// of a detailed router's unroutable-connection count, and what the
	// tables print as "routing violations".
	FailedConnections int
	// WireLength is the total routed wirelength in µm.
	WireLength float64
	// NetLength is the routed length per net (µm), indexed like
	// nl.Nets; STA uses it for wire RC.
	NetLength []float64
	// RipupRounds is the number of negotiation rounds that ran.
	RipupRounds int
	// CrossRegionNets counts nets whose pins span more than one die
	// region (0 unless Options.Regions was set).
	CrossRegionNets int
}

// Routable reports whether the layout routed cleanly: no connection
// crosses an over-capacity edge. No overflow condition is needed: every
// edge's capacity is positive and its usage is the sum of the routed
// paths through it, so an over-capacity edge always carries a path,
// and that path's segment is a failed connection.
func (r *Result) Routable() bool { return r.FailedConnections == 0 }

// twoPin is one routed two-pin segment of a net's spanning tree.
type twoPin struct {
	net  int
	a, b [2]int
	path []edge
}

// RouteNetlist globally routes the placed netlist: RouteNetlistState
// with the State dropped. Pads participate as ordinary terminals. The
// cell-density capacity derate is computed from the placement itself.
//
// Cancellation is cooperative: the initial pattern-routing sweep and
// every rip-up/reroute round check ctx periodically (every
// cancelCadence segments) and return a wrapped ctx error promptly when
// it is canceled or its deadline passes.
//
// Both the first pass and the rip-up/reroute negotiation fan out
// across opts.Workers goroutines; results are byte-identical for every
// worker count (see the package comment in regions.go for why).
func RouteNetlist(ctx context.Context, nl *place.Netlist, pl *place.Placement, layout place.Layout, opts Options) (*Result, error) {
	res, _, err := RouteNetlistState(ctx, nl, pl, layout, opts)
	return res, err
}

// RouteNetlistState routes the placed netlist and returns, with the
// Result, the State an incremental ECO reroute (RouteECO) resumes
// from. Recording the State never alters the routing.
func RouteNetlistState(ctx context.Context, nl *place.Netlist, pl *place.Placement, layout place.Layout, opts Options) (*Result, *State, error) {
	if len(pl.Pos) != nl.NumCells() {
		return nil, nil, fmt.Errorf("route: placement for %d cells, netlist has %d", len(pl.Pos), nl.NumCells())
	}
	opts.defaults(layout)
	density, err := cellDensity(nl, pl, layout, opts)
	if err != nil {
		return nil, nil, err
	}
	g, err := NewGrid(layout, opts, density)
	if err != nil {
		return nil, nil, err
	}
	r := newRouter(g, opts)

	// Multi-die admission: count the nets whose pins span more than
	// one die region and reject the run up front when they exceed the
	// inter-die pin budget — crossing nets consume scarce derated
	// boundary tracks, and a netlist that cannot fit them is better
	// failed loudly than routed into guaranteed overflow.
	crossRegion := 0
	if len(opts.Regions) > 1 {
		for ni := range nl.Nets {
			if netSpansRegions(nl, pl, ni, opts.Regions) {
				crossRegion++
			}
		}
		if opts.RegionPinBudget >= 0 {
			budget := opts.RegionPinBudget
			if budget == 0 {
				budget = int(g.CrossRegionCapacity)
			}
			if crossRegion > budget {
				return nil, nil, fmt.Errorf(
					"route: %d nets cross die-region boundaries, inter-die pin budget is %d",
					crossRegion, budget)
			}
		}
	}

	// Decompose every net into two-pin segments over gcell terminals.
	// The terminal buffer is reused across nets (profile-driven: a
	// fresh dedup map per net dominated setup time at 100k+ nets).
	rec := obs.From(ctx)
	_, decSpan := rec.StartSpan(ctx, "route.decompose")
	var segs []twoPin
	terms := newNetTerminals(nl)
	var ptsBuf [][2]int
	for ni := range nl.Nets {
		pts := terminalCells(g, nl, pl, ni, ptsBuf[:0])
		ptsBuf = pts
		terms.add(pts)
		if len(pts) < 2 {
			continue
		}
		for _, pr := range mstPairs(g, pts) {
			segs = append(segs, twoPin{net: ni, a: pr[0], b: pr[1]})
		}
	}
	// Longer segments first: they have the least routing flexibility.
	sorted, slots := sortSegs(segs)
	segsOfNet := netSlots(segs, slots, len(nl.Nets))
	segs = sorted
	decSpan.End(nil)

	rec.Add("route.nets", int64(len(nl.Nets)))
	rec.Add("route.segments", int64(len(segs)))
	_, fpSpan := rec.StartSpan(ctx, "route.first_pass")

	// Initial pattern routing, in fixed batches. Within a batch every
	// segment is routed against the immutable congestion state frozen
	// at the batch boundary, so the segments are independent and fan
	// out across opts.Workers goroutines; their usage is then applied
	// in segment order before the next batch sees the grid. Batch
	// boundaries depend only on the segment indices — never on the
	// worker count — so the routing is byte-identical for any Workers
	// value, and the serial apply loop is the cancellation point.
	if err := r.firstPass(ctx, segs, nil); err != nil {
		fpSpan.End(err)
		return nil, nil, err
	}
	fpSpan.End(nil)

	rounds, err := r.negotiate(ctx, rec, segs)
	if err != nil {
		return nil, nil, err
	}

	segLen, failed := make([]float64, len(segs)), make([]bool, len(segs))
	res := collectResult(g, nl, segs, rounds, segLen, failed)
	res.CrossRegionNets = crossRegion
	st := newState(layout, opts, g, segs, segsOfNet, terms.perNet(), segLen, failed, nl, cellGCells(g, pl), res)
	if rec != nil {
		recordRouteMetrics(rec, nl, pl, g, st.res)
	}
	return st.res, st, nil
}

// sortSegs returns segs in the canonical global routing order shared
// by the full and the incremental paths: longest first (least routing
// flexibility), equally long segments in their input order. slots[i]
// is the position segs[i] takes in sorted. The input slice is left as
// it was.
func sortSegs(segs []twoPin) (sorted []twoPin, slots []int) {
	slots = make([]int, len(segs))
	for i := range segs {
		slots[i] = segs[i].length()
	}
	lengthSlots(slots)
	sorted = make([]twoPin, len(segs))
	for i, slot := range slots {
		sorted[slot] = segs[i]
	}
	return sorted, slots
}

// lengthSlots turns segment lengths into canonical slots in place: a
// stable counting sort, longest first, equally long segments in their
// input order.
func lengthSlots(slots []int) {
	maxLen := 0
	for _, l := range slots {
		maxLen = max(maxLen, l)
	}
	next := make([]int, maxLen+1)
	for _, l := range slots {
		next[l]++
	}
	// next[l] becomes the slot of the first segment of length l.
	for l, acc := maxLen, 0; l >= 0; l-- {
		next[l], acc = acc, acc+next[l]
	}
	for i, l := range slots {
		slots[i] = next[l]
		next[l]++
	}
}

// length is the segment's Manhattan length in gcells, sortSegs' key.
func (s *twoPin) length() int { return abs(s.a[0]-s.b[0]) + abs(s.a[1]-s.b[1]) }

// firstPass pattern-routes segments in fixed 256-segment batches
// against the congestion frozen at each batch boundary, applying usage
// serially in segment order between batches. When route is non-nil,
// only segments with route[i] true are pattern-routed — the others
// already carry a path whose usage was applied by the caller (the
// incremental path's kept nets). Byte-identical for any worker count.
func (r *router) firstPass(ctx context.Context, segs []twoPin, route []bool) error {
	const firstPassBatch = 256
	g := r.grid
	applyCheck := cancelChecker{ctx: ctx}
	for start := 0; start < len(segs); start += firstPassBatch {
		end := start + firstPassBatch
		if end > len(segs) {
			end = len(segs)
		}
		batch := segs[start:end]
		if err := par.ForEach(ctx, r.opts.Workers, len(batch), func(j int) error {
			if route == nil || route[start+j] {
				batch[j].path = r.patternRoute(batch[j].a, batch[j].b)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("route: canceled: %w", err)
		}
		for j := range batch {
			if err := applyCheck.tick(); err != nil {
				return fmt.Errorf("route: canceled: %w", err)
			}
			if route != nil && !route[start+j] {
				continue
			}
			for _, e := range batch[j].path {
				g.addUsage(e, 1)
			}
		}
	}
	return nil
}

// collectResult assembles a Result from the settled grid and segment
// paths. segLen and failed receive each segment's routed length and
// whether its path crosses an over-capacity edge.
func collectResult(g *Grid, nl *place.Netlist, segs []twoPin, rounds int, segLen []float64, failed []bool) *Result {
	res := &Result{Grid: g, NetLength: make([]float64, len(nl.Nets)), RipupRounds: rounds}
	for i := range segs {
		l, f := pathStats(g, segs[i].path)
		segLen[i], failed[i] = l, f
		if f {
			res.FailedConnections++
		}
		res.NetLength[segs[i].net] += l
		res.WireLength += l
	}
	gridTotals(g, res)
	return res
}

// pathStats returns a path's routed length in µm, summed edge by edge
// in path order, and whether it crosses an over-capacity edge.
func pathStats(g *Grid, path []edge) (float64, bool) {
	l := 0.0
	failed := false
	for _, e := range path {
		if e.horizontal {
			l += g.CellW
		} else {
			l += g.CellH
		}
		if g.overflowOf(e) > 0 {
			failed = true
		}
	}
	return l, failed
}

// gridTotals fills the Result's whole-grid figures: total overflow
// and the over-capacity edge count.
func gridTotals(g *Grid, res *Result) {
	res.Overflow = g.TotalOverflow()
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if g.usageH[y][x] > g.capH[y][x] {
				res.OverflowEdges++
			}
			if g.usageV[y][x] > g.capV[y][x] {
				res.OverflowEdges++
			}
		}
	}
}

// negotiate is the congestion negotiation: rip up and reroute every
// segment crossing an overflowed edge, round by round, until the
// overflow clears or the round budget runs out. Each round
//
//  1. freezes the failing set against the start-of-round congestion,
//  2. partitions it into spatially disjoint regions plus per-depth
//     boundary buckets of segments straddling the cut lines
//     (regions.go),
//  3. maze-routes the regions concurrently on opts.Workers goroutines
//     — regions are edge-disjoint, so every worker reads and writes
//     only its own rectangle of the shared grid: the rest of the grid
//     is an immutable start-of-round snapshot from its point of view,
//     and its own writes are the region-local deltas,
//  4. routes the boundary buckets level by level, deepest first —
//     buckets within a level are edge-disjoint and run concurrently;
//     each bucket itself is routed serially against the settled grid.
//
// Within a region and within each boundary bucket, segments negotiate
// in ascending global index order, each reroute seeing its
// predecessors' usage — the sequential discipline negotiated
// congestion requires, applied per disjoint region. The partition, the
// per-region order, and the phase boundaries depend only on the
// failing set and the grid geometry, so the outcome is byte-identical
// at any worker count. Returns the number of rounds that ran.
func (r *router) negotiate(ctx context.Context, rec *obs.Recorder, segs []twoPin) (int, error) {
	g := r.grid
	// Register the negotiation counters up front so a clean routing
	// (zero rounds) still exports them at zero.
	ripupIters := rec.Counter("route.ripup_iterations")
	reroutes := rec.Counter("route.reroutes")
	regionsTotal := rec.Counter("route.regions")
	boundaryTotal := rec.Counter("route.boundary_nets")
	roundOverflow := rec.Histogram("route.round_overflow", overflowBounds)
	regionSize := rec.Histogram("route.region_segments", regionSegBounds)
	_, ripSpan := rec.StartSpan(ctx, "route.ripup")
	all := gridRect{X0: 0, Y0: 0, X1: g.NX - 1, Y1: g.NY - 1}
	rounds := 0
	for iter := 0; iter < r.opts.RipupIterations; iter++ {
		if err := ctxErr(ctx); err != nil {
			ripSpan.End(err)
			return rounds, err
		}
		overflow := g.TotalOverflow()
		if overflow == 0 {
			break
		}
		// Freeze the failing set against the start-of-round state. With
		// an ECO overflow floor, residual baseline congestion does not
		// fail a segment — only overflow the edit introduced does.
		var fail []int
		var terr []gridRect
		try := func(i int) {
			for _, e := range segs[i].path {
				if ov := g.overflowOf(e); ov > 0 && ov > r.overflowFloor(e) {
					fail = append(fail, i)
					terr = append(terr, g.territory(segs[i].a, segs[i].b))
					return
				}
			}
		}
		if r.eligible == nil {
			for i := range segs {
				try(i)
			}
		} else {
			for _, i := range r.eligible {
				try(i)
			}
		}
		if len(fail) == 0 {
			break
		}
		rounds++
		roundOverflow.Observe(float64(overflow))
		ripupIters.Add(1)
		r.bumpHistory()
		plan := partitionRegions(fail, terr, all)
		regionsTotal.Add(int64(len(plan.Regions)))
		boundaryTotal.Add(int64(plan.boundaryCount()))
		for _, reg := range plan.Regions {
			regionSize.Observe(float64(len(reg)))
		}
		// runBuckets fans a set of edge-disjoint segment lists across
		// the worker pool, each list routed serially in ascending order.
		runBuckets := func(buckets [][]int) error {
			return par.ForEach(ctx, r.opts.Workers, len(buckets), func(bi int) error {
				s := r.scratch.Get().(*mazeScratch)
				defer r.scratch.Put(s)
				check := cancelChecker{ctx: ctx}
				for _, i := range buckets[bi] {
					if err := check.tick(); err != nil {
						return err
					}
					r.reroute(s, &segs[i])
				}
				return nil
			})
		}
		if err := runBuckets(plan.Regions); err != nil {
			err = fmt.Errorf("route: canceled: %w", err)
			ripSpan.End(err)
			return rounds, err
		}
		// Boundary buckets: deepest level first, each level's buckets
		// concurrent, seeing everything inside their rectangles settled.
		for d := len(plan.BoundaryLevels) - 1; d >= 0; d-- {
			if err := runBuckets(plan.BoundaryLevels[d]); err != nil {
				err = fmt.Errorf("route: canceled: %w", err)
				ripSpan.End(err)
				return rounds, err
			}
		}
		reroutes.Add(int64(len(fail)))
	}
	ripSpan.End(nil)
	return rounds, nil
}

// reroute rips up one segment's usage and maze-routes it against the
// current congestion.
func (r *router) reroute(s *mazeScratch, sg *twoPin) {
	for _, e := range sg.path {
		r.grid.addUsage(e, -1)
	}
	sg.path = r.mazeRoute(s, sg.a, sg.b)
	for _, e := range sg.path {
		r.grid.addUsage(e, 1)
	}
}

// recordRouteMetrics fills the router's observability signals: the
// per-gcell congestion histogram (the paper's Figure 3 decision
// input), the net half-perimeter wirelength distribution, and the
// outcome counters. Runs serially after the collect pass, so every
// observation order — and therefore every histogram min/max — is
// deterministic regardless of the routing phases' worker counts.
func recordRouteMetrics(rec *obs.Recorder, nl *place.Netlist, pl *place.Placement, g *Grid, res *Result) {
	ch := rec.Histogram("route.congestion", congestionBounds)
	for _, row := range g.CongestionMap() {
		ch.ObserveAll(row)
	}
	hpwl := make([]float64, 0, len(nl.Nets))
	for ni := range nl.Nets {
		if n := &nl.Nets[ni]; n.Degree() >= 2 {
			hpwl = append(hpwl, netHPWL(n, pl))
		}
	}
	rec.Histogram("route.net_hpwl_um", hpwlBounds).ObserveAll(hpwl)
	rec.Add("route.overflow_tracks", int64(res.Overflow))
	rec.Add("route.overflow_edges", int64(res.OverflowEdges))
	rec.Add("route.failed_connections", int64(res.FailedConnections))
}

// netHPWL is the half-perimeter of a net's pin bounding box (the net
// has a pin).
func netHPWL(n *place.Net, pl *place.Placement) float64 {
	var box geom.Rect
	if len(n.Cells) > 0 {
		box = geom.Rect{Min: pl.Pos[n.Cells[0]], Max: pl.Pos[n.Cells[0]]}
	} else {
		box = geom.Rect{Min: n.Pads[0], Max: n.Pads[0]}
	}
	for _, c := range n.Cells {
		box = box.Union(geom.Rect{Min: pl.Pos[c], Max: pl.Pos[c]})
	}
	for _, p := range n.Pads {
		box = box.Union(geom.Rect{Min: p, Max: p})
	}
	return box.HalfPerimeter()
}

// netSpansRegions reports whether net ni has pins (cells or pads) in
// more than one die region.
func netSpansRegions(nl *place.Netlist, pl *place.Placement, ni int, regions []geom.Rect) bool {
	first := -1
	check := func(p geom.Point) bool {
		r := regionIndexOf(p, regions)
		if first < 0 {
			first = r
			return false
		}
		return r != first
	}
	for _, c := range nl.Nets[ni].Cells {
		if check(pl.Pos[c]) {
			return true
		}
	}
	for _, p := range nl.Nets[ni].Pads {
		if check(p) {
			return true
		}
	}
	return false
}

// cellDensity bins cell area into gcells, normalized by gcell area.
func cellDensity(nl *place.Netlist, pl *place.Placement, layout place.Layout, opts Options) ([][]float64, error) {
	nx := int(math.Ceil(layout.Die.W() / opts.GCellSize))
	ny := int(math.Ceil(layout.Die.H() / opts.GCellSize))
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("route: degenerate grid %dx%d", nx, ny)
	}
	cw := layout.Die.W() / float64(nx)
	ch := layout.Die.H() / float64(ny)
	m := make([][]float64, ny)
	for y := range m {
		m[y] = make([]float64, nx)
	}
	gArea := cw * ch
	for c := 0; c < nl.NumCells(); c++ {
		x := int((pl.Pos[c].X - layout.Die.Min.X) / cw)
		y := int((pl.Pos[c].Y - layout.Die.Min.Y) / ch)
		if x < 0 {
			x = 0
		}
		if x >= nx {
			x = nx - 1
		}
		if y < 0 {
			y = 0
		}
		if y >= ny {
			y = ny - 1
		}
		m[y][x] += nl.Widths[c] * layout.RowHeight / gArea
	}
	return m, nil
}

// cellGCells returns the index (y*NX + x) of the gcell holding each
// placed cell.
func cellGCells(g *Grid, pl *place.Placement) []int32 {
	out := make([]int32, len(pl.Pos))
	for c, p := range pl.Pos {
		x, y := g.GCellOf(p)
		out[c] = int32(y*g.NX + x)
	}
	return out
}

// terminalCells maps a net's endpoints to distinct gcells, appending
// into buf (pass buf[:0] to reuse its backing array). Dedup is a
// linear scan: nets have a handful of terminals, and avoiding a map
// per net is a measured win at paper scale.
func terminalCells(g *Grid, nl *place.Netlist, pl *place.Placement, ni int, buf [][2]int) [][2]int {
	out := buf
	add := func(p geom.Point) {
		x, y := g.GCellOf(p)
		for _, k := range out {
			if k[0] == x && k[1] == y {
				return
			}
		}
		out = append(out, [2]int{x, y})
	}
	for _, c := range nl.Nets[ni].Cells {
		add(pl.Pos[c])
	}
	for _, p := range nl.Nets[ni].Pads {
		add(p)
	}
	return out
}

// netTerminals collects every net's terminal gcells, net by net, in
// one backing array.
type netTerminals struct {
	flat [][2]int
	end  []int // end[ni] is the end of net ni's terminals in flat
}

// newNetTerminals sizes the collection for nl: a net has at most one
// terminal per pin.
func newNetTerminals(nl *place.Netlist) netTerminals {
	pins := 0
	for i := range nl.Nets {
		pins += len(nl.Nets[i].Cells) + len(nl.Nets[i].Pads)
	}
	return netTerminals{flat: make([][2]int, 0, pins), end: make([]int, 0, len(nl.Nets))}
}

// add appends the next net's terminals.
func (t *netTerminals) add(pts [][2]int) {
	t.flat = append(t.flat, pts...)
	t.end = append(t.end, len(t.flat))
}

// perNet returns each net's terminals as a window of the backing
// array.
func (t *netTerminals) perNet() [][][2]int {
	out := make([][][2]int, len(t.end))
	start := 0
	for ni, end := range t.end {
		out[ni] = t.flat[start:end:end]
		start = end
	}
	return out
}

// mstPairs returns the edges of a Manhattan-distance minimum spanning
// tree over the terminals (Prim's algorithm).
func mstPairs(g *Grid, pts [][2]int) [][2][2]int {
	n := len(pts)
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	dist := make([]int, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = math.MaxInt32
	}
	inTree[0] = true
	for i := 1; i < n; i++ {
		dist[i] = abs(pts[i][0]-pts[0][0]) + abs(pts[i][1]-pts[0][1])
		from[i] = 0
	}
	var out [][2][2]int
	for added := 1; added < n; added++ {
		best, bestD := -1, math.MaxInt32
		for i := range pts {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		out = append(out, [2][2]int{pts[from[best]], pts[best]})
		for i := range pts {
			if inTree[i] {
				continue
			}
			d := abs(pts[i][0]-pts[best][0]) + abs(pts[i][1]-pts[best][1])
			if d < dist[i] {
				dist[i] = d
				from[i] = best
			}
		}
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func minmax(a, b int) (int, int) {
	if a > b {
		return b, a
	}
	return a, b
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// router carries the routing state shared by all workers: the grid,
// the options, and the maze-scratch pool. The grid is only ever
// mutated from one goroutine at a time per edge (regions are
// edge-disjoint; serial phases own the whole grid), so the router
// itself needs no locks.
type router struct {
	grid *Grid
	opts Options
	// floorGrid, when set (incremental ECO rerouting), is the previous
	// routing's settled grid: overflow up to its level is treated as
	// already-negotiated residue, and only overflow EXCEEDING it
	// triggers rip-up. Without it a fast ECO on a design whose baseline
	// negotiation ended with residual congestion would re-fight that
	// entire congestion every time, globally.
	floorGrid *Grid
	// eligible, when non-nil, restricts rip-up to the listed segments,
	// ascending — the edited nets of an ECO reroute. On a saturated
	// design an edited net has no overflow-free path, so its +1 through
	// a hot edge would otherwise drag that edge's every co-user into the
	// negotiation and cascade across the die; instead the kept nets'
	// paths are preserved verbatim and the marginal overflow is reported
	// honestly in the Result. RouteECO gets the same restriction by
	// handing negotiate only the fresh segments, in canonical order
	// (the region plan depends only on the failing segments' order and
	// territories, so it is the same plan); the mask serves the
	// whole-design formulation that its reference test keeps.
	eligible []int
	// scratch pools the per-worker maze-routing buffers.
	scratch sync.Pool
}

// overflowFloor is the overflow level on e the negotiation accepts
// without ripping: zero normally, the baseline's residue under ECO.
func (r *router) overflowFloor(e edge) float64 {
	if r.floorGrid == nil {
		return 0
	}
	if ov := r.floorGrid.overflowOf(e); ov > 0 {
		return ov
	}
	return 0
}

func newRouter(g *Grid, opts Options) *router {
	r := &router{grid: g, opts: opts}
	r.scratch.New = func() any { return &mazeScratch{} }
	return r
}

// edgeCost is the congestion-aware cost of pushing one more track
// through the edge.
func (r *router) edgeCost(e edge) float64 {
	g := r.grid
	if e.horizontal {
		return linkCost(g.usageH[e.y][e.x], g.capH[e.y][e.x], g.histH[e.y][e.x])
	}
	return linkCost(g.usageV[e.y][e.x], g.capV[e.y][e.x], g.histV[e.y][e.x])
}

// linkCost is edgeCost for an edge of the given usage, capacity and
// history cost.
func linkCost(usage, cap2, hist float64) float64 {
	cost := 1.0 + hist
	if cap2 <= 0 {
		return cost + 64
	}
	over := (usage + 1) / cap2
	if over > 0.8 {
		d := over - 0.8
		cost += d * d * 32
	}
	return cost
}

// bumpHistory raises the history cost of currently overflowed edges,
// the negotiated-congestion mechanism that pushes reroutes away from
// hot spots.
func (r *router) bumpHistory() {
	g := r.grid
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if g.usageH[y][x] > g.capH[y][x] {
				g.histH[y][x] += 2
			}
			if g.usageV[y][x] > g.capV[y][x] {
				g.histV[y][x] += 2
			}
		}
	}
}

// patternRoute routes a two-pin segment with the cheaper of the two
// L-shapes (or a straight line when aligned).
func (r *router) patternRoute(a, b [2]int) []edge {
	p1 := r.lPath(a, b, true)
	if a[0] == b[0] || a[1] == b[1] {
		return p1
	}
	p2 := r.lPath(a, b, false)
	if r.pathCost(p2) < r.pathCost(p1) {
		return p2
	}
	return p1
}

func (r *router) pathCost(p []edge) float64 {
	c := 0.0
	for _, e := range p {
		c += r.edgeCost(e)
	}
	return c
}

// lPath builds the L route from a to b, horizontal-first or
// vertical-first.
func (r *router) lPath(a, b [2]int, horizontalFirst bool) []edge {
	p := make([]edge, 0, abs(a[0]-b[0])+abs(a[1]-b[1]))
	hseg := func(y, x0, x1 int) {
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		for x := x0; x < x1; x++ {
			p = append(p, edge{x: x, y: y, horizontal: true})
		}
	}
	vseg := func(x, y0, y1 int) {
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		for y := y0; y < y1; y++ {
			p = append(p, edge{x: x, y: y, horizontal: false})
		}
	}
	if horizontalFirst {
		hseg(a[1], a[0], b[0])
		vseg(b[0], a[1], b[1])
	} else {
		vseg(a[0], a[1], b[1])
		hseg(b[1], a[0], b[0])
	}
	return p
}

// mazeHalo is the detour margin in gcells around a segment's terminal
// bounding box. Real global routers confine nets near their bounding
// box (timing and via budgets); an unbounded maze would launder
// structural congestion into die-wide detours. The region partitioner
// relies on it: a segment's territory (regions.go) is its terminal
// bounding box expanded by exactly this halo.
const mazeHalo = 2

// pqItem is one entry of the maze router's binary min-heap. node
// indexes the box-local Dijkstra arrays.
type pqItem struct {
	node int32
	cost float64
}

// mazeScratch is the reusable maze-routing state: the box-local
// Dijkstra arrays and the frontier heap. One lives in each concurrent
// region worker (pooled on the router) and one in the serial phases;
// reusing them removes the per-call allocations that used to dominate
// reroute time at scale. The buffers grow to the largest detour box
// seen and stay there.
type mazeScratch struct {
	dist []float64
	prev []int32
	heap []pqItem
}

// ensure sizes the arrays for an n-cell detour box.
func (s *mazeScratch) ensure(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]int32, n)
	}
	s.dist = s.dist[:n]
	s.prev = s.prev[:n]
	s.heap = s.heap[:0]
}

// heapPush inserts an item into the min-heap.
func heapPush(q *[]pqItem, it pqItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cost <= h[i].cost {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

// heapPop removes and returns the min item.
func heapPop(q *[]pqItem) pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].cost < h[small].cost {
			small = l
		}
		if rr < n && h[rr].cost < h[small].cost {
			small = rr
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*q = h
	return top
}

// mazeRoute finds the min-cost path from a to b with Dijkstra over the
// detour box (the terminal bounding box expanded by mazeHalo). All
// search state is box-local and lives in the scratch buffers, so a
// reroute costs O(box) rather than O(grid).
func (r *router) mazeRoute(s *mazeScratch, a, b [2]int) []edge {
	g := r.grid
	x0, x1 := minmax(a[0], b[0])
	y0, y1 := minmax(a[1], b[1])
	x0, x1 = clampInt(x0-mazeHalo, 0, g.NX-1), clampInt(x1+mazeHalo, 0, g.NX-1)
	y0, y1 = clampInt(y0-mazeHalo, 0, g.NY-1), clampInt(y1+mazeHalo, 0, g.NY-1)
	w := x1 - x0 + 1
	n := w * (y1 - y0 + 1)
	s.ensure(n)
	dist, prev := s.dist, s.prev
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	start, goal := int32((a[1]-y0)*w+(a[0]-x0)), int32((b[1]-y0)*w+(b[0]-x0))
	dist[start] = 0
	heapPush(&s.heap, pqItem{node: start})
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		if it.cost > dist[it.node] {
			continue
		}
		if it.node == goal {
			break
		}
		// Relax the four neighbors, east, west, north, south, reading
		// the popped gcell's rows once: its east and west edges are
		// horizontal edges of row y, its north edge a vertical edge of
		// row y and its south edge one of row y-1.
		li := int(it.node)
		x, y := x0+li%w, y0+li/w
		uh, ch, hh := g.usageH[y], g.capH[y], g.histH[y]
		if x < x1 {
			if nd := it.cost + linkCost(uh[x], ch[x], hh[x]); nd < dist[li+1] {
				dist[li+1], prev[li+1] = nd, it.node
				heapPush(&s.heap, pqItem{node: int32(li + 1), cost: nd})
			}
		}
		if x > x0 {
			if nd := it.cost + linkCost(uh[x-1], ch[x-1], hh[x-1]); nd < dist[li-1] {
				dist[li-1], prev[li-1] = nd, it.node
				heapPush(&s.heap, pqItem{node: int32(li - 1), cost: nd})
			}
		}
		if y < y1 {
			if nd := it.cost + linkCost(g.usageV[y][x], g.capV[y][x], g.histV[y][x]); nd < dist[li+w] {
				dist[li+w], prev[li+w] = nd, it.node
				heapPush(&s.heap, pqItem{node: int32(li + w), cost: nd})
			}
		}
		if y > y0 {
			uv, cv, hv := g.usageV[y-1], g.capV[y-1], g.histV[y-1]
			if nd := it.cost + linkCost(uv[x], cv[x], hv[x]); nd < dist[li-w] {
				dist[li-w], prev[li-w] = nd, it.node
				heapPush(&s.heap, pqItem{node: int32(li - w), cost: nd})
			}
		}
	}
	// Reconstruct (capacity hint: the no-detour distance).
	path := make([]edge, 0, abs(a[0]-b[0])+abs(a[1]-b[1]))
	for v := goal; v != start && prev[v] >= 0; v = prev[v] {
		u := prev[v]
		ux, uy := x0+int(u)%w, y0+int(u)/w
		vx, vy := x0+int(v)%w, y0+int(v)/w
		switch {
		case uy == vy && vx == ux+1:
			path = append(path, edge{x: ux, y: uy, horizontal: true})
		case uy == vy && vx == ux-1:
			path = append(path, edge{x: vx, y: uy, horizontal: true})
		case ux == vx && vy == uy+1:
			path = append(path, edge{x: ux, y: uy, horizontal: false})
		default:
			path = append(path, edge{x: ux, y: vy, horizontal: false})
		}
	}
	if len(path) == 0 && start != goal {
		// Unreachable (cannot happen on a connected grid, but stay
		// safe): fall back to a pattern route.
		return r.patternRoute(a, b)
	}
	return path
}
