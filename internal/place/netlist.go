// Package place implements the placement substrate: a standard-cell
// layout image (die, rows, sites), recursive min-cut bisection with
// Fiduccia–Mattheyses refinement and terminal propagation, and row
// legalization.
//
// The paper's methodology places the technology-independent netlist
// once on the chip layout image to give every base gate coordinates
// (Section 3), and places the mapped netlist again for routing and
// congestion evaluation. Both uses go through this package.
package place

import (
	"fmt"
	"math"

	"casyn/internal/geom"
)

// Net is one hyperedge of the placement netlist: the cells it
// connects plus any fixed pad locations (I/O pins from the floorplan
// pin assignment).
type Net struct {
	Cells []int
	Pads  []geom.Point
}

// Degree returns the number of endpoints of the net.
func (n *Net) Degree() int { return len(n.Cells) + len(n.Pads) }

// Netlist is the hypergraph given to the placer.
type Netlist struct {
	// Widths holds each cell's width in µm; cell heights are uniform
	// (one row).
	Widths []float64
	// Nets are the hyperedges.
	Nets []Net
}

// NumCells returns the number of placeable cells.
func (nl *Netlist) NumCells() int { return len(nl.Widths) }

// TotalWidth returns the sum of all cell widths.
func (nl *Netlist) TotalWidth() float64 {
	t := 0.0
	for _, w := range nl.Widths {
		t += w
	}
	return t
}

// Validate checks index ranges and width signs.
func (nl *Netlist) Validate() error {
	for i, w := range nl.Widths {
		if w < 0 {
			return fmt.Errorf("place: cell %d has negative width", i)
		}
	}
	for ni, n := range nl.Nets {
		for _, c := range n.Cells {
			if c < 0 || c >= len(nl.Widths) {
				return fmt.Errorf("place: net %d references cell %d of %d", ni, c, len(nl.Widths))
			}
		}
	}
	return nil
}

// cellNets returns, for each cell, the indices of its incident nets.
func (nl *Netlist) cellNets() [][]int32 {
	out := make([][]int32, len(nl.Widths))
	for ni, n := range nl.Nets {
		for _, c := range n.Cells {
			out[c] = append(out[c], int32(ni))
		}
	}
	return out
}

// Placement assigns a position (cell center) and a row to every cell.
type Placement struct {
	Pos []geom.Point
	Row []int
}

// HPWL returns the total half-perimeter wirelength of the netlist
// under placement p, including pad locations.
func (nl *Netlist) HPWL(p *Placement) float64 {
	total := 0.0
	for i := range nl.Nets {
		total += nl.NetHPWL(p, i)
	}
	return total
}

// NetHPWL returns the half-perimeter wirelength of one net.
func (nl *Netlist) NetHPWL(p *Placement, net int) float64 {
	if nl.Nets[net].Degree() < 2 {
		return 0
	}
	return nl.netBox(p, net).HalfPerimeter()
}

// netBox returns the bounding box of a net's cell and pad pins. The net
// must have at least one pin.
func (nl *Netlist) netBox(p *Placement, net int) geom.Rect {
	n := &nl.Nets[net]
	var first geom.Point
	if len(n.Cells) > 0 {
		first = p.Pos[n.Cells[0]]
	} else {
		first = n.Pads[0]
	}
	bb := geom.Rect{Min: first, Max: first}
	for _, c := range n.Cells {
		bb = extend(bb, p.Pos[c])
	}
	for _, pad := range n.Pads {
		bb = extend(bb, pad)
	}
	return bb
}

// extend grows bb to contain pt, with the same min/max semantics as
// geom.Rect.Union.
func extend(bb geom.Rect, pt geom.Point) geom.Rect {
	return geom.Rect{
		Min: geom.Point{X: min(bb.Min.X, pt.X), Y: min(bb.Min.Y, pt.Y)},
		Max: geom.Point{X: max(bb.Max.X, pt.X), Y: max(bb.Max.Y, pt.Y)},
	}
}

// Layout is the chip layout image: the die rectangle divided into
// standard-cell rows.
type Layout struct {
	Die       geom.Rect
	RowHeight float64
	NumRows   int
}

// NewLayout builds a layout image with the given die area (µm²),
// aspect ratio (width/height), and row height. The height is rounded
// to a whole number of rows.
func NewLayout(dieArea, aspect, rowHeight float64) (Layout, error) {
	if dieArea <= 0 || aspect <= 0 || rowHeight <= 0 {
		return Layout{}, fmt.Errorf("place: non-positive layout parameter")
	}
	// area = w*h, aspect = w/h → h = sqrt(area/aspect).
	h := math.Sqrt(dieArea / aspect)
	rows := int(h/rowHeight + 0.5)
	if rows < 1 {
		rows = 1
	}
	h = float64(rows) * rowHeight
	w := dieArea / h
	return Layout{
		Die:       geom.R(0, 0, w, h),
		RowHeight: rowHeight,
		NumRows:   rows,
	}, nil
}

// LayoutWithRows builds a layout image with an exact row count and die
// width.
func LayoutWithRows(rows int, width, rowHeight float64) (Layout, error) {
	if rows < 1 || width <= 0 || rowHeight <= 0 {
		return Layout{}, fmt.Errorf("place: non-positive layout parameter")
	}
	return Layout{
		Die:       geom.R(0, 0, width, float64(rows)*rowHeight),
		RowHeight: rowHeight,
		NumRows:   rows,
	}, nil
}

// RowY returns the vertical center of row r.
func (l Layout) RowY(r int) float64 {
	return l.Die.Min.Y + (float64(r)+0.5)*l.RowHeight
}

// RowOf returns the row index containing y, clamped to valid rows.
func (l Layout) RowOf(y float64) int {
	r := int((y - l.Die.Min.Y) / l.RowHeight)
	if r < 0 {
		r = 0
	}
	if r >= l.NumRows {
		r = l.NumRows - 1
	}
	return r
}

// Area returns the die area.
func (l Layout) Area() float64 { return l.Die.Area() }

// Utilization returns total cell area / die area for the given total
// cell area, the paper's "Area Utilization%" metric (as a fraction).
func (l Layout) Utilization(totalCellArea float64) float64 {
	return totalCellArea / l.Area()
}

// PerimeterPads distributes n pad locations evenly around the die
// boundary, the default floorplan pin assignment when none is given.
func (l Layout) PerimeterPads(n int) []geom.Point {
	if n <= 0 {
		return nil
	}
	per := 2 * (l.Die.W() + l.Die.H())
	step := per / float64(n)
	pads := make([]geom.Point, n)
	for i := range pads {
		d := step * (float64(i) + 0.5)
		pads[i] = l.perimeterPoint(d)
	}
	return pads
}

// perimeterPoint maps a distance along the boundary (counterclockwise
// from the lower-left corner) to a point.
func (l Layout) perimeterPoint(d float64) geom.Point {
	w, h := l.Die.W(), l.Die.H()
	switch {
	case d < w:
		return geom.Pt(l.Die.Min.X+d, l.Die.Min.Y)
	case d < w+h:
		return geom.Pt(l.Die.Max.X, l.Die.Min.Y+(d-w))
	case d < 2*w+h:
		return geom.Pt(l.Die.Max.X-(d-w-h), l.Die.Max.Y)
	default:
		return geom.Pt(l.Die.Min.X, l.Die.Max.Y-(d-2*w-h))
	}
}
