package logic

import (
	"math/rand"
	"testing"
)

// Property tests for the two-level engine. Every property is checked
// by exhaustive truth-table enumeration against an independent
// reference implementation, over seeded random covers — the seeds make
// failures reproducible and -shuffle-proof.

// refCubeEval is an independent reference for cube semantics, written
// against the Lit interface rather than the bit-plane internals.
func refCubeEval(c Cube, assign []bool) bool {
	for i := 0; i < c.Inputs(); i++ {
		switch c.Lit(i) {
		case 1:
			if !assign[i] {
				return false
			}
		case -1:
			if assign[i] {
				return false
			}
		}
	}
	return true
}

// refCoverEval is the reference OR-of-cubes semantics.
func refCoverEval(c *Cover, assign []bool) bool {
	for _, cb := range c.Cubes {
		if refCubeEval(cb, assign) {
			return true
		}
	}
	return false
}

// randomCover builds a seeded random cover over n inputs.
func randomCover(rng *rand.Rand, n, cubes int) *Cover {
	c := NewCover(n)
	for i := 0; i < cubes; i++ {
		c.Cubes = append(c.Cubes, randomCube(rng, n))
	}
	return c
}

// assignFor expands minterm m into an assignment vector.
func assignFor(m, n int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = m>>i&1 == 1
	}
	return a
}

// TestPropertyCoverEvalMatchesEnumeration: Cover.Eval agrees with the
// reference semantics on every assignment of every random cover.
func TestPropertyCoverEvalMatchesEnumeration(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		c := randomCover(rng, n, rng.Intn(6))
		for m := 0; m < 1<<n; m++ {
			a := assignFor(m, n)
			if c.Eval(a) != refCoverEval(c, a) {
				t.Fatalf("trial %d: Eval diverges from reference at minterm %d of %s", trial, m, c)
			}
		}
	}
}
