package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	t.Parallel()
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v, want (4,-2)", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
}

func TestManhattanDistance(t *testing.T) {
	t.Parallel()
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 7},
		{Pt(-1, -1), Pt(1, 1), 4},
		{Pt(2, 5), Pt(2, 5), 0},
	}
	for _, c := range cases {
		if got := c.p.Manhattan(c.q); !almostEq(got, c.want) {
			t.Errorf("Manhattan(%v,%v) = %g, want %g", c.p, c.q, got, c.want)
		}
	}
}

func TestRectConstruction(t *testing.T) {
	t.Parallel()
	// R normalizes swapped corners.
	r := R(5, 7, 1, 2)
	if r.Min != Pt(1, 2) || r.Max != Pt(5, 7) {
		t.Fatalf("R did not normalize: %v", r)
	}
	if !almostEq(r.W(), 4) || !almostEq(r.H(), 5) {
		t.Errorf("W,H = %g,%g, want 4,5", r.W(), r.H())
	}
	if !almostEq(r.Area(), 20) {
		t.Errorf("Area = %g, want 20", r.Area())
	}
	if r.Center() != Pt(3, 4.5) {
		t.Errorf("Center = %v, want (3,4.5)", r.Center())
	}
	if !almostEq(r.HalfPerimeter(), 9) {
		t.Errorf("HalfPerimeter = %g, want 9", r.HalfPerimeter())
	}
}

func TestRectContains(t *testing.T) {
	t.Parallel()
	r := R(0, 0, 10, 10)
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range []Point{Pt(-0.001, 5), Pt(10.001, 5), Pt(5, -1), Pt(5, 11)} {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestRectUnion(t *testing.T) {
	t.Parallel()
	got := R(0, 0, 1, 1).Union(R(5, -2, 6, 3))
	want := R(0, -2, 6, 3)
	if got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
}

func TestBoundingBoxAndHPWL(t *testing.T) {
	t.Parallel()
	pts := []Point{Pt(1, 1), Pt(4, 0), Pt(2, 6)}
	bb := BoundingBox(pts)
	if bb != R(1, 0, 4, 6) {
		t.Errorf("BoundingBox = %v", bb)
	}
	if !almostEq(bb.HalfPerimeter(), 9) {
		t.Errorf("HPWL = %g, want 9", bb.HalfPerimeter())
	}
	if BoundingBox(nil).HalfPerimeter() != 0 || BoundingBox([]Point{Pt(3, 3)}).HalfPerimeter() != 0 {
		t.Error("HPWL of degenerate nets must be 0")
	}
	if (BoundingBox(nil) != Rect{}) {
		t.Error("BoundingBox(nil) must be zero Rect")
	}
}

func TestCenterOfMass(t *testing.T) {
	t.Parallel()
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := CenterOfMass(pts); got != Pt(1, 1) {
		t.Errorf("CenterOfMass = %v, want (1,1)", got)
	}
	if got := CenterOfMass(nil); got != Pt(0, 0) {
		t.Errorf("CenterOfMass(nil) = %v, want origin", got)
	}
}

// Property: the Manhattan distance is a metric — symmetric,
// non-negative, zero iff equal points, and satisfies the triangle
// inequality.
func TestManhattanMetricProperties(t *testing.T) {
	t.Parallel()
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Constrain to a sane range to avoid inf/overflow noise.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		dab, dba := a.Manhattan(b), b.Manhattan(a)
		if dab != dba || dab < 0 {
			return false
		}
		if a == b && dab != 0 {
			return false
		}
		// Triangle inequality with a small epsilon for FP noise.
		return a.Manhattan(c) <= dab+b.Manhattan(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HPWL, the bounding box's half perimeter, is invariant under
// permutation of the pin list and never decreases when a point is added.
func TestHPWLProperties(t *testing.T) {
	t.Parallel()
	f := func(xs, ys []float64, extraX, extraY float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n < 2 {
			return true
		}
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		pts := make([]Point, n)
		for i := 0; i < n; i++ {
			pts[i] = Pt(clamp(xs[i]), clamp(ys[i]))
		}
		hpwl := func(pts []Point) float64 { return BoundingBox(pts).HalfPerimeter() }
		base := hpwl(pts)
		// Reverse is a permutation.
		rev := make([]Point, n)
		for i := range pts {
			rev[n-1-i] = pts[i]
		}
		if !almostEq(hpwl(rev), base) {
			return false
		}
		grown := append(append([]Point{}, pts...), Pt(clamp(extraX), clamp(extraY)))
		return hpwl(grown) >= base-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CenterOfMass lies inside the bounding box of its points.
func TestCenterOfMassInsideBBox(t *testing.T) {
	t.Parallel()
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		pts := make([]Point, n)
		for i := 0; i < n; i++ {
			pts[i] = Pt(clamp(xs[i]), clamp(ys[i]))
		}
		bb := BoundingBox(pts)
		tol := R(bb.Min.X-1e-6, bb.Min.Y-1e-6, bb.Max.X+1e-6, bb.Max.Y+1e-6)
		return tol.Contains(CenterOfMass(pts))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
