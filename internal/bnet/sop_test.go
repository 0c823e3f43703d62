package bnet

import (
	"testing"
)

// lit builds a literal for tests.
func lit(id int, neg bool) Lit { return Lit{Node: NodeID(id), Neg: neg} }

// mkCube builds a cube from (id, neg) pairs, panicking on null cubes.
func mkCube(lits ...Lit) Cube {
	c, ok := NewCube(lits...)
	if !ok {
		panic("null cube in test")
	}
	return c
}

func TestNewCubeNormalization(t *testing.T) {
	t.Parallel()
	c := mkCube(lit(3, false), lit(1, true), lit(3, false))
	if len(c) != 2 {
		t.Fatalf("len = %d, want 2 (dup removed)", len(c))
	}
	if c[0] != lit(1, true) || c[1] != lit(3, false) {
		t.Errorf("cube not sorted: %v", c)
	}
	if _, ok := NewCube(lit(2, false), lit(2, true)); ok {
		t.Error("null cube (x·x') must be rejected")
	}
}

func TestCubeContainsAllAndRemove(t *testing.T) {
	t.Parallel()
	c := mkCube(lit(1, false), lit(2, true), lit(5, false))
	d := mkCube(lit(1, false), lit(5, false))
	if !c.ContainsAll(d) {
		t.Error("ContainsAll failed")
	}
	if d.ContainsAll(c) {
		t.Error("subset must not contain superset")
	}
}

func TestCubeIntersectMerge(t *testing.T) {
	t.Parallel()
	a := mkCube(lit(1, false), lit(2, false))
	b := mkCube(lit(2, false), lit(3, true))
	m, ok := a.Merge(b)
	if !ok || len(m) != 3 {
		t.Errorf("Merge = %v,%v", m, ok)
	}
	// Merging opposite phases is null.
	c := mkCube(lit(1, true))
	if _, ok := a.Merge(c); ok {
		t.Error("merge with opposite phase must fail")
	}
}

func TestSopNormalization(t *testing.T) {
	t.Parallel()
	// a + ab normalizes to a (absorption).
	s := NewSop(
		mkCube(lit(1, false)),
		mkCube(lit(1, false), lit(2, false)),
	)
	if len(s) != 1 || len(s[0]) != 1 {
		t.Errorf("absorption failed: %v", s)
	}
	// Duplicates removed.
	s = NewSop(mkCube(lit(1, false)), mkCube(lit(1, false)))
	if len(s) != 1 {
		t.Errorf("dup removal failed: %v", s)
	}
}

func TestSopSupportAndLiterals(t *testing.T) {
	t.Parallel()
	s := NewSop(
		mkCube(lit(4, false), lit(2, true)),
		mkCube(lit(2, false)),
	)
	supp := s.Support()
	if len(supp) != 2 || supp[0] != 2 || supp[1] != 4 {
		t.Errorf("Support = %v", supp)
	}
	if s.NumLiterals() != 3 {
		t.Errorf("NumLiterals = %d, want 3", s.NumLiterals())
	}
}

func TestSopEval(t *testing.T) {
	t.Parallel()
	// f = x1·x2' + x3
	s := NewSop(
		mkCube(lit(1, false), lit(2, true)),
		mkCube(lit(3, false)),
	)
	val := make([]bool, 5)
	val[1] = true
	if !s.Eval(val) {
		t.Error("x1 x2' must be true")
	}
	val[2] = true
	if s.Eval(val) {
		t.Error("x1 x2 must be false")
	}
	val[3] = true
	if !s.Eval(val) {
		t.Error("x3 must dominate")
	}
}

func TestSopRename(t *testing.T) {
	t.Parallel()
	s := NewSop(mkCube(lit(1, false), lit(2, true)))
	r := s.Rename(2, 7)
	if r[0][1] != lit(7, true) && r[0][0] != lit(7, true) {
		t.Errorf("Rename = %v", r)
	}
}
