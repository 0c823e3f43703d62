// Package lib holds one function of each kind the reachability gate
// must tell apart.
package lib

// Sizer is satisfied by Box; no code calls Box.Size directly.
type Sizer interface{ Size() int }

// Box is a unit square.
type Box struct{}

// Size is reached only through the Sizer interface.
func (Box) Size() int { return 1 }

// Area is reached only as a method value.
func (Box) Area() int { return 1 }

// Table is a package-level var whose initializer is the only use of
// double.
var Table = map[string]func(int) int{"double": double}

func double(x int) int { return 2 * x }

// planted is dead: nothing names it, so the gate must flag exactly this
// function.
func planted() int {
	return 0
}
