package logic

import (
	"fmt"
	"strings"
)

// Cover is a sum of cubes over a fixed number of inputs: the ON-set of
// a single-output Boolean function in sum-of-products form.
type Cover struct {
	n     int
	Cubes []Cube
}

// NewCover returns an empty (constant-false) cover over n inputs.
func NewCover(n int) *Cover {
	if n < 0 {
		panic("logic: negative input count")
	}
	return &Cover{n: n}
}

// ParseCover parses a whitespace-separated list of cube strings, all
// of the same width.
func ParseCover(s string) (*Cover, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return NewCover(0), nil
	}
	cov := NewCover(len(fields[0]))
	for _, f := range fields {
		if len(f) != cov.n {
			return nil, fmt.Errorf("logic: cube %q width %d differs from %d", f, len(f), cov.n)
		}
		c, err := ParseCube(f)
		if err != nil {
			return nil, err
		}
		cov.Cubes = append(cov.Cubes, c)
	}
	return cov, nil
}

// MustParseCover is ParseCover that panics on error.
func MustParseCover(s string) *Cover {
	c, err := ParseCover(s)
	if err != nil {
		panic(err)
	}
	return c
}

// Inputs returns the number of inputs of the cover.
func (c *Cover) Inputs() int { return c.n }

// Len returns the number of cubes.
func (c *Cover) Len() int { return len(c.Cubes) }

// Clone returns a deep copy of c.
func (c *Cover) Clone() *Cover {
	out := NewCover(c.n)
	out.Cubes = make([]Cube, len(c.Cubes))
	for i, cb := range c.Cubes {
		out.Cubes[i] = cb.Clone()
	}
	return out
}

// Add appends a cube, which must have the cover's width.
func (c *Cover) Add(cb Cube) {
	if cb.n != c.n {
		panic(fmt.Sprintf("logic: adding %d-input cube to %d-input cover", cb.n, c.n))
	}
	c.Cubes = append(c.Cubes, cb)
}

// NumLiterals returns the total literal count, the classic proxy for
// multi-level area after decomposition ([2],[3] in the paper).
func (c *Cover) NumLiterals() int {
	n := 0
	for _, cb := range c.Cubes {
		n += cb.NumLiterals()
	}
	return n
}

// Eval evaluates the cover under a full input assignment.
func (c *Cover) Eval(assign []bool) bool {
	for _, cb := range c.Cubes {
		if cb.EvalAssignment(assign) {
			return true
		}
	}
	return false
}

// IsEmpty reports whether the cover has no cubes (constant false).
func (c *Cover) IsEmpty() bool { return len(c.Cubes) == 0 }

// String renders the cover one cube per line.
func (c *Cover) String() string {
	lines := make([]string, len(c.Cubes))
	for i, cb := range c.Cubes {
		lines[i] = cb.String()
	}
	return strings.Join(lines, "\n")
}
