package logic

import (
	"fmt"
	"strings"
)

// Test-side parsers and the reference cover evaluation: the tests write
// cubes and covers in PLA input-plane notation.

// MustParseCube is ParseCube that panics on error.
func MustParseCube(s string) Cube {
	c, err := ParseCube(s)
	if err != nil {
		panic(err)
	}
	return c
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

// Eval evaluates the cover under a full input assignment.
func (c *Cover) Eval(assign []bool) bool {
	for _, cb := range c.Cubes {
		if cb.EvalAssignment(assign) {
			return true
		}
	}
	return false
}
