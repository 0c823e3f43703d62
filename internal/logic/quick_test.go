package logic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickCube adapts the package's random cube builder to testing/quick:
// Cube has unexported fields, so register a generator.
type quickCube struct{ C Cube }

// Generate implements quick.Generator.
func (quickCube) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(16) + 1
	return reflect.ValueOf(quickCube{C: randomCube(r, n)})
}

// widen returns a copy of c re-expressed over n inputs (padding with
// don't-cares) so two generated cubes can be compared.
func widen(c Cube, n int) Cube {
	out := NewCube(n)
	for i := 0; i < c.Inputs() && i < n; i++ {
		switch c.Lit(i) {
		case 1:
			out.SetPos(i)
		case -1:
			out.SetNeg(i)
		}
	}
	return out
}

// Property: containment is a partial order — reflexive and
// antisymmetric (mutual containment implies equality).
func TestQuickCubeContainmentPartialOrder(t *testing.T) {
	t.Parallel()
	f := func(a, b quickCube) bool {
		n := a.C.Inputs()
		if b.C.Inputs() > n {
			n = b.C.Inputs()
		}
		x, y := widen(a.C, n), widen(b.C, n)
		if !x.Contains(x) {
			return false
		}
		if x.Contains(y) && y.Contains(x) && !x.Equal(y) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: intersection is the greatest lower bound — contained in
// both operands, and any cube contained in both is contained in it.
func TestQuickCubeIntersectionGLB(t *testing.T) {
	t.Parallel()
	f := func(a, b, c quickCube) bool {
		n := 12
		x, y, z := widen(a.C, n), widen(b.C, n), widen(c.C, n)
		in, ok := x.Intersect(y)
		if ok {
			if !x.Contains(in) || !y.Contains(in) {
				return false
			}
		}
		if x.Contains(z) && y.Contains(z) {
			if !ok {
				return false // z witnesses a non-empty intersection
			}
			if !in.Contains(z) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
