// Package route implements the global-routing substrate: a capacity
// grid derived from the die size and a three-metal-layer model,
// pattern (L/Z) initial routing, congestion-driven rip-up and reroute,
// overflow counting, and the congestion map the paper's methodology
// consults before committing to detailed place & route.
//
// "Routing violations" in the experiments are reported as failed
// connections — two-pin route segments whose final path crosses an
// over-capacity edge — the closest global-routing analogue of the
// detailed-router violation counts the paper obtains from Silicon
// Ensemble; raw track overflow is reported alongside.
package route

import (
	"fmt"
	"math"
	"sort"

	"casyn/internal/geom"
	"casyn/internal/place"
)

// Options tunes the router.
type Options struct {
	// GCellSize is the routing grid pitch in µm (default: twice the
	// layout row height).
	GCellSize float64
	// RipupIterations bounds the rip-up/reroute negotiation rounds.
	// 0 means "use the default" (3); a negative value disables rip-up
	// entirely, leaving the first-pass pattern routing as the result.
	RipupIterations int
	// CapacityScale multiplies every edge capacity (default 1). The
	// experiment configurations use it to calibrate this global
	// router's capacity model against the commercial detailed router
	// the paper measured with (whose placement and routing are
	// stronger than this substrate's).
	CapacityScale float64
	// Workers bounds the goroutines of every design-wide pass — the
	// decomposition, the initial routing sweep, the rip-up/reroute
	// negotiation and the result assembly: 0 = runtime.GOMAXPROCS,
	// 1 = serial. Results are byte-identical for every value — the
	// passes over nets and segments work in fixed blocks joined in
	// index order, the sweep in fixed batches against an immutable
	// congestion snapshot, and rip-up routes spatially disjoint regions
	// whose partition never depends on the worker count — so only
	// wall-clock time changes.
	Workers int
	// Regions, when it holds more than one rectangle, declares the die
	// regions of a multi-die workload (partition.DieRegions). Grid
	// edges crossing a region boundary are derated by
	// regionBoundaryDerate — inter-die connections are scarcer than
	// on-die tracks — and nets spanning more than one region are
	// checked against RegionPinBudget before routing starts.
	Regions []geom.Rect
	// RegionPinBudget caps how many nets may cross region boundaries
	// when Regions is set: 0 derives the budget from the derated
	// capacity of the boundary-crossing edges, a negative value
	// disables the admission check.
	RegionPinBudget int
}

// Fixed capacity-model parameters.
const (
	// trackPitch is the routing track pitch in µm, a 0.18 µm-class
	// value. The grid models 3 metal layers: one horizontal, one
	// vertical, plus a fragmented intra-cell layer counted as reduced
	// capacity, so each direction gets one layer of tracks.
	trackPitch = 0.56
	// utilizationPenalty scales how much local cell density eats
	// routing capacity over the cells.
	utilizationPenalty = 0.35
	// regionBoundaryDerate scales the capacity of edges crossing a
	// die-region boundary.
	regionBoundaryDerate = 0.5
)

func (o *Options) defaults(layout place.Layout) {
	if o.GCellSize == 0 {
		o.GCellSize = 2 * layout.RowHeight
	}
	if o.RipupIterations == 0 {
		o.RipupIterations = 3
	}
	if o.RipupIterations < 0 {
		o.RipupIterations = 0
	}
	if o.CapacityScale == 0 {
		o.CapacityScale = 1
	}
}

// Grid is the global-routing graph: NX×NY gcells with capacitated
// boundary edges. Horizontal edges carry horizontal-layer tracks,
// vertical edges vertical-layer tracks.
type Grid struct {
	NX, NY int
	CellW  float64
	CellH  float64
	Origin geom.Point
	// capH[y][x] is the capacity of the edge (x,y)-(x+1,y); usageH its
	// occupancy. Likewise capV/usageV for (x,y)-(x,y+1).
	capH, capV     [][]float64
	usageH, usageV [][]float64
	histH, histV   [][]float64 // rip-up history cost
	// costH and costV cache each edge's linkCost(usage, cap, hist), the
	// price the maze and pattern routers read. addUsage and bumpHistory
	// keep it current; code that writes usage, capacity or history
	// directly calls refreshCosts afterwards.
	costH, costV [][]float64

	// CrossRegionCapacity is the summed (derated) track capacity of
	// the edges crossing die-region boundaries — the auto inter-die
	// pin budget. Zero unless Options.Regions held > 1 region.
	CrossRegionCapacity float64
}

// NewGrid builds the routing grid for a layout. cellDensity, if
// non-nil, gives per-gcell cell-area density in [0,1] used to derate
// capacity over dense regions (indexed [y][x]); pass nil for full
// capacity.
func NewGrid(layout place.Layout, opts Options, cellDensity [][]float64) (*Grid, error) {
	opts.defaults(layout)
	nx := int(math.Ceil(layout.Die.W() / opts.GCellSize))
	ny := int(math.Ceil(layout.Die.H() / opts.GCellSize))
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("route: degenerate grid %dx%d", nx, ny)
	}
	g := &Grid{
		NX:     nx,
		NY:     ny,
		CellW:  layout.Die.W() / float64(nx),
		CellH:  layout.Die.H() / float64(ny),
		Origin: layout.Die.Min,
	}
	// Track budget: one layer of tracks in each direction.
	baseH := g.CellH / trackPitch * opts.CapacityScale
	baseV := g.CellW / trackPitch * opts.CapacityScale
	alloc := func() [][]float64 {
		m := make([][]float64, ny)
		for y := range m {
			m[y] = make([]float64, nx)
		}
		return m
	}
	g.capH, g.capV = alloc(), alloc()
	g.usageH, g.usageV = alloc(), alloc()
	g.histH, g.histV = alloc(), alloc()
	g.costH, g.costV = alloc(), alloc()
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			derate := 1.0
			if cellDensity != nil {
				d := cellDensity[y][x]
				if d > 1 {
					d = 1
				}
				derate = 1 - utilizationPenalty*d
			}
			g.capH[y][x] = baseH * derate
			g.capV[y][x] = baseV * derate
		}
	}
	if len(opts.Regions) > 1 {
		g.derateRegionBoundaries(opts)
	}
	g.refreshCosts()
	return g, nil
}

// refreshCosts recomputes every edge's cached cost from its usage,
// capacity and history.
func (g *Grid) refreshCosts() {
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			g.costH[y][x] = linkCost(g.usageH[y][x], g.capH[y][x], g.histH[y][x])
			g.costV[y][x] = linkCost(g.usageV[y][x], g.capV[y][x], g.histV[y][x])
		}
	}
}

// derateRegionBoundaries scales down the capacity of every edge whose
// two gcells sit in different die regions and accumulates the
// remaining cross-boundary capacity (the auto inter-die pin budget).
func (g *Grid) derateRegionBoundaries(opts Options) {
	regionAt := make([]int, g.NY*g.NX)
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			regionAt[y*g.NX+x] = regionIndexOf(g.Center(x, y), opts.Regions)
		}
	}
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if x+1 < g.NX && regionAt[y*g.NX+x] != regionAt[y*g.NX+x+1] {
				g.capH[y][x] *= regionBoundaryDerate
				g.CrossRegionCapacity += g.capH[y][x]
			}
			if y+1 < g.NY && regionAt[y*g.NX+x] != regionAt[(y+1)*g.NX+x] {
				g.capV[y][x] *= regionBoundaryDerate
				g.CrossRegionCapacity += g.capV[y][x]
			}
		}
	}
}

// regionIndexOf returns the first region containing p, or the region
// with the nearest center when p lies outside all of them (perimeter
// pads sit exactly on the die edge, which Contains covers; the
// fallback handles out-of-die coordinates).
func regionIndexOf(p geom.Point, regions []geom.Rect) int {
	for i, r := range regions {
		if r.Contains(p) {
			return i
		}
	}
	best, bestD := 0, math.Inf(1)
	for i, r := range regions {
		if d := p.Manhattan(r.Center()); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// GCellOf returns the grid coordinates containing point p, clamped to
// the grid.
func (g *Grid) GCellOf(p geom.Point) (int, int) {
	x := int((p.X - g.Origin.X) / g.CellW)
	y := int((p.Y - g.Origin.Y) / g.CellH)
	if x < 0 {
		x = 0
	}
	if x >= g.NX {
		x = g.NX - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.NY {
		y = g.NY - 1
	}
	return x, y
}

// Center returns the center point of gcell (x, y).
func (g *Grid) Center(x, y int) geom.Point {
	return geom.Pt(
		g.Origin.X+(float64(x)+0.5)*g.CellW,
		g.Origin.Y+(float64(y)+0.5)*g.CellH,
	)
}

// edge identifies one grid edge.
type edge struct {
	x, y       int
	horizontal bool
}

// addUsage adjusts an edge's occupancy by delta tracks and its cached
// cost with it.
func (g *Grid) addUsage(e edge, delta float64) {
	if e.horizontal {
		u := g.usageH[e.y][e.x] + delta
		g.usageH[e.y][e.x] = u
		g.costH[e.y][e.x] = linkCost(u, g.capH[e.y][e.x], g.histH[e.y][e.x])
	} else {
		u := g.usageV[e.y][e.x] + delta
		g.usageV[e.y][e.x] = u
		g.costV[e.y][e.x] = linkCost(u, g.capV[e.y][e.x], g.histV[e.y][e.x])
	}
}

// overflowOf returns the edge's overflow in tracks.
func (g *Grid) overflowOf(e edge) float64 {
	if e.horizontal {
		return g.usageH[e.y][e.x] - g.capH[e.y][e.x]
	}
	return g.usageV[e.y][e.x] - g.capV[e.y][e.x]
}

// TotalOverflow sums positive overflow over all edges (in tracks),
// rounded to whole violations.
func (g *Grid) TotalOverflow() int {
	t := 0.0
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			if ov := g.usageH[y][x] - g.capH[y][x]; ov > 0 {
				t += ov
			}
			if ov := g.usageV[y][x] - g.capV[y][x]; ov > 0 {
				t += ov
			}
		}
	}
	return int(math.Round(t))
}

// CongestionMap returns, per gcell, the maximum of the adjacent edges'
// usage/capacity ratios — the congestion map the methodology inspects.
// Every call computes a fresh map from the current usage, so a
// returned map is a snapshot the caller owns. It only reads the grid:
// concurrent calls are safe, but usage writes must be ordered before
// it (its callers read after routing ends).
func (g *Grid) CongestionMap() [][]float64 {
	m := make([][]float64, g.NY)
	for y := range m {
		m[y] = make([]float64, g.NX)
		for x := range m[y] {
			r := 0.0
			consider := func(u, c float64) {
				if c <= 0 {
					if u > 0 {
						r = math.Max(r, 2)
					}
					return
				}
				r = math.Max(r, u/c)
			}
			consider(g.usageH[y][x], g.capH[y][x])
			consider(g.usageV[y][x], g.capV[y][x])
			if x > 0 {
				consider(g.usageH[y][x-1], g.capH[y][x-1])
			}
			if y > 0 {
				consider(g.usageV[y-1][x], g.capV[y-1][x])
			}
			m[y][x] = r
		}
	}
	return m
}

// HotSpot is one over-capacity grid edge: the (x, y) gcell the edge
// leaves, its direction, and how badly it overflowed. The flow's
// per-iteration Metrics carry the worst few as the machine-readable
// answer to "where did routability fail".
type HotSpot struct {
	X, Y int
	// Horizontal marks the edge (x,y)-(x+1,y); otherwise (x,y)-(x,y+1).
	Horizontal bool
	// Overflow is usage minus capacity in tracks (> 0).
	Overflow float64
	// Congestion is the usage/capacity ratio (2 when capacity is 0).
	Congestion float64
}

// HotSpots returns the n worst over-capacity edges, ordered by
// overflow descending with (y, x, horizontal-first) tie-breaks so the
// list is deterministic. Empty when nothing overflowed.
func (g *Grid) HotSpots(n int) []HotSpot {
	var out []HotSpot
	add := func(x, y int, horizontal bool, usage, cap2 float64) {
		ov := usage - cap2
		if ov <= 0 {
			return
		}
		h := HotSpot{X: x, Y: y, Horizontal: horizontal, Overflow: ov, Congestion: 2}
		if cap2 > 0 {
			h.Congestion = usage / cap2
		}
		out = append(out, h)
	}
	for y := 0; y < g.NY; y++ {
		for x := 0; x < g.NX; x++ {
			add(x, y, true, g.usageH[y][x], g.capH[y][x])
			add(x, y, false, g.usageV[y][x], g.capV[y][x])
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Overflow > out[j].Overflow
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
