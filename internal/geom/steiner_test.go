package geom

import (
	"math/rand"
	"testing"
)

func TestSteinerLengthSmall(t *testing.T) {
	t.Parallel()
	if l := SteinerLength(nil); l != 0 {
		t.Errorf("empty = %g", l)
	}
	if l := SteinerLength([]Point{Pt(3, 4)}); l != 0 {
		t.Errorf("single = %g", l)
	}
	if l := SteinerLength([]Point{Pt(0, 0), Pt(3, 4)}); l != 7 {
		t.Errorf("two points = %g, want 7", l)
	}
	// Three terminals: exact RSMT is the bounding-box half-perimeter.
	if l := SteinerLength([]Point{Pt(0, 0), Pt(10, 0), Pt(5, 5)}); l != 15 {
		t.Errorf("three points = %g, want 15", l)
	}
	// Duplicates collapse.
	if l := SteinerLength([]Point{Pt(0, 0), Pt(0, 0), Pt(3, 4)}); l != 7 {
		t.Errorf("dup = %g, want 7", l)
	}
}

func TestSteinerLengthBeatsMSTOnCross(t *testing.T) {
	t.Parallel()
	// Four corner terminals: the MST needs 3 sides (30); one Steiner
	// point in the middle gives the exact RSMT of 20... for a plus
	// shape. Use the classic 4-corner square: RSMT = 3 sides via Hanan
	// points collapses to 30 too, so use a cross instead.
	cross := []Point{Pt(5, 0), Pt(5, 10), Pt(0, 5), Pt(10, 5)}
	l := SteinerLength(cross)
	m := mstLength(cross)
	if l > m+1e-9 {
		t.Fatalf("steiner %g > mst %g", l, m)
	}
	// The cross has RSMT 20 (a plus through the center Hanan point
	// (5,5)); the terminal-only MST is 30.
	if l != 20 {
		t.Errorf("cross = %g, want 20", l)
	}
	if m != 30 {
		t.Errorf("cross mst = %g, want 30", m)
	}
}

func TestSteinerLengthBounds(t *testing.T) {
	t.Parallel()
	// HPWL <= RSMT estimate <= MST for random point sets, and the
	// estimate is deterministic for a fixed input order.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
		}
		l := SteinerLength(pts)
		if h := BoundingBox(pts).HalfPerimeter(); l < h-1e-9 {
			t.Fatalf("steiner %g below HPWL %g for %v", l, h, pts)
		}
		if m := mstLength(dedupPoints(pts)); l > m+1e-9 {
			t.Fatalf("steiner %g above MST %g for %v", l, m, pts)
		}
		if l2 := SteinerLength(pts); l2 != l {
			t.Fatalf("non-deterministic: %g vs %g", l, l2)
		}
	}
}
