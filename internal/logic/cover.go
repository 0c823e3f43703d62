package logic

import "strings"

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

// Inputs returns the number of inputs of the cover.
func (c *Cover) Inputs() int { return c.n }

// Len returns the number of cubes.
func (c *Cover) Len() int { return len(c.Cubes) }

// String renders the cover one cube per line.
func (c *Cover) String() string {
	lines := make([]string, len(c.Cubes))
	for i, cb := range c.Cubes {
		lines[i] = cb.String()
	}
	return strings.Join(lines, "\n")
}
