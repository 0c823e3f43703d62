// Package geom provides the planar geometry primitives shared by the
// placement, routing, and technology-mapping packages: points,
// rectangles, distance metrics, and wirelength estimators.
//
// All coordinates are float64 values in micrometers (µm), matching the
// units the paper reports die and cell areas in. The zero value of
// every type is usable.
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the chip layout image.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p with both coordinates multiplied by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Manhattan returns the L1 (rectilinear) distance between p and q.
// Routed wires on a Manhattan grid have exactly this length when the
// route is detour-free, so it is the distance() of the paper's
// covering cost (Eq. 2), which the paper leaves abstract, and the only
// distance the flow uses.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and
// Max the upper-right; a well-formed Rect has Min.X <= Max.X and
// Min.Y <= Max.Y.
type Rect struct {
	Min, Max Point
}

// R builds a well-formed rectangle from two arbitrary corners.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height of r.
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Center returns the geometric center of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// HalfPerimeter returns the half-perimeter of r, the classic HPWL
// wirelength estimate for a net whose pin bounding box is r.
func (r Rect) HalfPerimeter() float64 { return r.W() + r.H() }

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s. The
// min and max builtins equal math.Min and math.Max bit for bit on
// finite coordinates, signed zeros included, and compile inline.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s %s]", r.Min, r.Max)
}

// BoundingBox returns the smallest rectangle containing all points.
// It returns a zero Rect when pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// SteinerLength estimates the rectilinear Steiner minimal tree length
// of pts. For up to three terminals the bounding-box half-perimeter is
// the exact RSMT length; above that it builds the rectilinear minimum
// spanning tree (Prim) and greedily inserts Hanan grid points while
// any single insertion shortens the tree — the classic 1-Steiner
// heuristic, deterministic for a fixed point order. Duplicate points
// are ignored.
func SteinerLength(pts []Point) float64 {
	pts = dedupPoints(pts)
	if len(pts) < 2 {
		return 0
	}
	if len(pts) <= 3 {
		return BoundingBox(pts).HalfPerimeter()
	}
	best := mstLength(pts)
	// Bounded 1-Steiner improvement: try every Hanan point, keep the
	// single best insertion, repeat until no insertion helps. The pin
	// counts here are small (net terminals, die regions), so the
	// O(n³ log n) worst case stays trivial.
	work := append([]Point(nil), pts...)
	for iter := 0; iter < len(pts); iter++ {
		bestGain := 0.0
		var bestPt Point
		for _, hx := range pts {
			for _, hy := range pts {
				h := Point{X: hx.X, Y: hy.Y}
				if containsPoint(work, h) {
					continue
				}
				l := mstLength(append(work, h))
				if g := best - l; g > bestGain+1e-9 {
					bestGain = g
					bestPt = h
				}
			}
		}
		if bestGain <= 0 {
			break
		}
		work = append(work, bestPt)
		best -= bestGain
	}
	return best
}

func dedupPoints(pts []Point) []Point {
	out := pts[:0:0]
	for _, p := range pts {
		if !containsPoint(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func containsPoint(pts []Point, q Point) bool {
	for _, p := range pts {
		if p == q {
			return true
		}
	}
	return false
}

// mstLength returns the length of the Manhattan-distance minimum
// spanning tree of pts (Prim's algorithm). A tree spanning terminals
// plus any extra Steiner points is itself a Steiner tree of the
// terminals, so the value is always a valid RSMT upper bound.
func mstLength(pts []Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	inTree := make([]bool, n)
	dist := make([]float64, n)
	for i := 1; i < n; i++ {
		dist[i] = pts[0].Manhattan(pts[i])
	}
	inTree[0] = true
	total := 0.0
	for added := 1; added < n; added++ {
		best := -1
		for i := 1; i < n; i++ {
			if !inTree[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += dist[best]
		for i := 1; i < n; i++ {
			if !inTree[i] {
				if d := pts[best].Manhattan(pts[i]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

// CenterOfMass returns the unweighted centroid of pts. It returns the
// origin when pts is empty. The paper's covering algorithm replaces
// the positions of all base gates covered by a selected match with
// their center of mass (Section 3.2).
func CenterOfMass(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(pts)))
}
