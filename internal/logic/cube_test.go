package logic

import (
	"math/rand"
	"testing"
)

func TestParseCube(t *testing.T) {
	t.Parallel()
	c, err := ParseCube("10-1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Inputs() != 4 {
		t.Fatalf("Inputs = %d, want 4", c.Inputs())
	}
	want := []int{1, -1, 0, 1}
	for i, w := range want {
		if got := c.Lit(i); got != w {
			t.Errorf("Lit(%d) = %d, want %d", i, got, w)
		}
	}
	if c.String() != "10-1" {
		t.Errorf("String = %q, want 10-1", c.String())
	}
	if _, err := ParseCube("10x"); err == nil {
		t.Error("ParseCube accepted invalid character")
	}
}

func TestCubeSettersAndLiteralCount(t *testing.T) {
	t.Parallel()
	c := NewCube(70) // spans two words
	if c.NumLiterals() != 0 {
		t.Fatal("new cube must be universal")
	}
	c.SetPos(0)
	c.SetNeg(69)
	if c.NumLiterals() != 2 {
		t.Errorf("NumLiterals = %d, want 2", c.NumLiterals())
	}
	if c.Lit(0) != 1 || c.Lit(69) != -1 {
		t.Error("literal values wrong after set")
	}
	// Setting opposite phase overwrites.
	c.SetNeg(0)
	if c.Lit(0) != -1 || c.NumLiterals() != 2 {
		t.Error("SetNeg must overwrite SetPos")
	}
}

func TestCubeContains(t *testing.T) {
	t.Parallel()
	wide := MustParseCube("1---")
	narrow := MustParseCube("10-1")
	if !wide.Contains(narrow) {
		t.Error("1--- must contain 10-1")
	}
	if narrow.Contains(wide) {
		t.Error("10-1 must not contain 1---")
	}
	if !wide.Contains(wide) {
		t.Error("containment must be reflexive")
	}
	other := MustParseCube("0---")
	if wide.Contains(other) || other.Contains(wide) {
		t.Error("disjoint cubes must not contain each other")
	}
	if wide.Contains(MustParseCube("1--")) {
		t.Error("different widths must not contain")
	}
}

func TestCubeIntersect(t *testing.T) {
	t.Parallel()
	a := MustParseCube("1--")
	b := MustParseCube("-0-")
	got, ok := a.Intersect(b)
	if !ok || got.String() != "10-" {
		t.Errorf("Intersect = %v,%v, want 10-,true", got, ok)
	}
	c := MustParseCube("0--")
	if _, ok := a.Intersect(c); ok {
		t.Error("opposite-phase cubes must have empty intersection")
	}
}

func TestCubeEval(t *testing.T) {
	t.Parallel()
	c := MustParseCube("1-0")
	if !c.EvalAssignment([]bool{true, false, false}) {
		t.Error("1-0 must accept 1x0")
	}
	if !c.EvalAssignment([]bool{true, true, false}) {
		t.Error("1-0 must accept 110")
	}
	if c.EvalAssignment([]bool{true, true, true}) {
		t.Error("1-0 must reject 111")
	}
	if c.EvalAssignment([]bool{false, false, false}) {
		t.Error("1-0 must reject 000")
	}
}

// randomCube builds a random cube over n inputs from the rng.
func randomCube(rng *rand.Rand, n int) Cube {
	c := NewCube(n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			c.SetPos(i)
		case 1:
			c.SetNeg(i)
		}
	}
	return c
}

// Property: parse(String(c)) == c round-trips.
func TestCubeStringRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(80) + 1
		c := randomCube(rng, n)
		got := MustParseCube(c.String())
		if !got.Equal(c) {
			t.Fatalf("round trip failed for %s", c)
		}
	}
}

// Property: a.Contains(b) iff the intersection of a and b equals b.
func TestCubeContainsMatchesIntersection(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(20) + 1
		a, b := randomCube(rng, n), randomCube(rng, n)
		inter, ok := a.Intersect(b)
		want := ok && inter.Equal(b)
		if got := a.Contains(b); got != want {
			t.Fatalf("Contains(%s,%s) = %v, intersection says %v", a, b, got, want)
		}
	}
}
