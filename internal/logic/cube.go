// Package logic implements the two-level (sum-of-products) logic
// substrate: cubes, covers, their evaluation, and Berkeley PLA file
// I/O.
//
// The package exists because the paper's benchmarks (SPLA, PDC,
// TOO_LARGE from IWLS93) are PLA-born circuits: a PLA is the input
// that package bnet turns into a multi-level network. No two-level
// minimization runs; the "SIS" baseline is bnet's extraction.
//
// A Cube over n inputs assigns each input one of three values: 0
// (complemented literal), 1 (positive literal), or - (don't care /
// absent). Cubes are stored in positional notation as two bitsets:
// bit i of pos is set when input i appears as a positive literal and
// bit i of neg when it appears complemented. A cube with both bits set
// for some input is contradictory (represents the empty set) and is
// never produced by this package's operations.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Cube is a product term over a fixed number of inputs. Create cubes
// with NewCube or a Cover's parser; the zero Cube is the universal
// cube over zero inputs.
type Cube struct {
	n   int // number of inputs
	pos []uint64
	neg []uint64
}

// NewCube returns the universal cube (all don't-cares) over n inputs.
func NewCube(n int) Cube {
	if n < 0 {
		panic("logic: negative input count")
	}
	w := (n + wordBits - 1) / wordBits
	return Cube{n: n, pos: make([]uint64, w), neg: make([]uint64, w)}
}

// ParseCube parses a string of '0', '1', and '-' characters, one per
// input, in input order.
func ParseCube(s string) (Cube, error) {
	c := NewCube(len(s))
	for i, ch := range s {
		switch ch {
		case '0':
			c.SetNeg(i)
		case '1':
			c.SetPos(i)
		case '-', '2':
			// don't care
		default:
			return Cube{}, fmt.Errorf("logic: invalid cube character %q at position %d", ch, i)
		}
	}
	return c, nil
}

// Inputs returns the number of inputs the cube is defined over.
func (c Cube) Inputs() int { return c.n }

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube {
	out := Cube{n: c.n, pos: make([]uint64, len(c.pos)), neg: make([]uint64, len(c.neg))}
	copy(out.pos, c.pos)
	copy(out.neg, c.neg)
	return out
}

// SetPos sets input i to the positive literal, clearing any negative
// literal.
func (c Cube) SetPos(i int) {
	c.pos[i/wordBits] |= 1 << (i % wordBits)
	c.neg[i/wordBits] &^= 1 << (i % wordBits)
}

// SetNeg sets input i to the complemented literal, clearing any
// positive literal.
func (c Cube) SetNeg(i int) {
	c.neg[i/wordBits] |= 1 << (i % wordBits)
	c.pos[i/wordBits] &^= 1 << (i % wordBits)
}

// Lit returns the value of input i: +1 for a positive literal, -1 for
// a complemented literal, 0 for don't-care.
func (c Cube) Lit(i int) int {
	w, b := i/wordBits, uint(i%wordBits)
	if c.pos[w]>>b&1 == 1 {
		return 1
	}
	if c.neg[w]>>b&1 == 1 {
		return -1
	}
	return 0
}

// NumLiterals returns the number of inputs that appear as literals.
func (c Cube) NumLiterals() int {
	n := 0
	for i := range c.pos {
		n += bits.OnesCount64(c.pos[i]) + bits.OnesCount64(c.neg[i])
	}
	return n
}

// EvalAssignment evaluates the cube under a full input assignment.
// assign[i] is the value of input i.
func (c Cube) EvalAssignment(assign []bool) bool {
	for i := 0; i < c.n; i++ {
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

// String renders the cube in PLA input-plane notation.
func (c Cube) String() string {
	var b strings.Builder
	b.Grow(c.n)
	for i := 0; i < c.n; i++ {
		switch c.Lit(i) {
		case 1:
			b.WriteByte('1')
		case -1:
			b.WriteByte('0')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}
