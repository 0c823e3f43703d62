package logic

import (
	"math/rand"
	"reflect"
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
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("round trip failed for %s", c)
		}
	}
}
