package cover

// K-field: the spatial generalization of Eq. 5's scalar congestion
// factor. The classic cost COST = AREA + K·WIRE weights every wire
// term identically; a KField instead assigns each gcell of the routing
// grid a multiplier, and every wire term of the DP is scaled by the
// maximum multiplier sampled along its span before the global K is
// applied:
//
//	COST(m,v) = AREA(m,v) + K · Σ mult(span_i) · wire_i        (5')
//
// The uniform field (every multiplier exactly 1.0; a nil *KField is
// one) reduces to the classic cost bit-for-bit: multiplying a float64
// by 1.0 is exact in IEEE 754 and the weighted accumulation runs in the
// same order as the unweighted one, so every cost, tie-break, and
// committed solution is identical (the uniform-field property test in
// the differential harness proves this across the example corpus).
//
// The field's geometry deliberately mirrors route.Grid (origin, cell
// pitch, dimensions) without importing it — flow constructs the field
// from a routed grid's exported geometry, keeping cover free of a
// routing dependency.

import (
	"fmt"

	"casyn/internal/geom"
)

// KField is a per-gcell multiplier grid over the die. Multipliers are
// ≥ 1 in practice (the adaptive controller only inflates), but the
// type does not enforce that. The zero multiplier value is invalid;
// use NewKField, which initializes every cell to exactly 1.0.
type KField struct {
	// Origin is the die's minimum corner; CellW/CellH the gcell pitch.
	Origin       geom.Point
	CellW, CellH float64
	// NX, NY are the grid dimensions; Mult is row-major: Mult[y*NX+x].
	NX, NY int
	Mult   []float64
}

// NewKField returns a uniform field (every multiplier exactly 1.0)
// with the given geometry — typically copied from a routed
// route.Grid's exported Origin/CellW/CellH/NX/NY.
func NewKField(origin geom.Point, cellW, cellH float64, nx, ny int) (*KField, error) {
	if nx < 1 || ny < 1 || cellW <= 0 || cellH <= 0 {
		return nil, fmt.Errorf("cover: degenerate K-field %dx%d (cell %gx%g)", nx, ny, cellW, cellH)
	}
	f := &KField{Origin: origin, CellW: cellW, CellH: cellH, NX: nx, NY: ny,
		Mult: make([]float64, nx*ny)}
	for i := range f.Mult {
		f.Mult[i] = 1
	}
	return f, nil
}

// Clone returns a deep copy. The adaptive controller clones before
// each inflation step so every iteration's CoverState keeps the exact
// field snapshot it covered with.
func (f *KField) Clone() *KField {
	g := *f
	g.Mult = append([]float64(nil), f.Mult...)
	return &g
}

// CellOf returns the gcell containing p, clamped to the grid (points
// outside the die land on the border cells, matching Grid.GCellOf).
func (f *KField) CellOf(p geom.Point) (int, int) {
	x := int((p.X - f.Origin.X) / f.CellW)
	y := int((p.Y - f.Origin.Y) / f.CellH)
	if x < 0 {
		x = 0
	}
	if x >= f.NX {
		x = f.NX - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= f.NY {
		y = f.NY - 1
	}
	return x, y
}

// At returns the multiplier of gcell (x, y).
func (f *KField) At(x, y int) float64 { return f.Mult[y*f.NX+x] }

// MultAt returns the multiplier of the gcell containing p.
func (f *KField) MultAt(p geom.Point) float64 {
	x, y := f.CellOf(p)
	return f.Mult[y*f.NX+x]
}

// SpanMult returns the multiplier applied to a wire term spanning a–b:
// the maximum of the field sampled at both endpoints and the span's
// midpoint. Three samples keep the DP cost O(1) per term; the midpoint
// catches a hot window strictly between two cool endpoints. All three
// samples lie on the segment a–b, so they stay inside any convex
// region containing both endpoints — the tree-territory soundness
// argument in fielddelta.go depends on exactly this. A nil field is the
// uniform field: its multiplier is 1 everywhere.
func (f *KField) SpanMult(a, b geom.Point) float64 {
	if f == nil {
		return 1
	}
	m := f.MultAt(a)
	if v := f.MultAt(b); v > m {
		m = v
	}
	mid := geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
	if v := f.MultAt(mid); v > m {
		m = v
	}
	return m
}

// Uniform reports whether every multiplier is exactly 1.0 — the field
// under which the weighted cover provably equals the classic one.
func (f *KField) Uniform() bool {
	for _, m := range f.Mult {
		if m != 1 {
			return false
		}
	}
	return true
}

// InflatedCells counts cells with multiplier > 1 (reporting).
func (f *KField) InflatedCells() int {
	n := 0
	for _, m := range f.Mult {
		if m > 1 {
			n++
		}
	}
	return n
}

// MaxMult returns the largest multiplier in the field (reporting).
func (f *KField) MaxMult() float64 {
	m := 1.0
	for _, v := range f.Mult {
		if v > m {
			m = v
		}
	}
	return m
}
