package bnet

import (
	"sort"
	"strings"
)

// Lit is a literal in a node's SOP: another node's output, possibly
// complemented. For the algebraic model a literal and its complement
// are treated as independent variables.
type Lit struct {
	Node NodeID
	Neg  bool
}

// Less orders literals by (Node, phase) with the positive phase first.
func (l Lit) Less(m Lit) bool {
	if l.Node != m.Node {
		return l.Node < m.Node
	}
	return !l.Neg && m.Neg
}

// Cube is a product of literals, kept sorted and duplicate-free.
type Cube []Lit

// NewCube returns a normalized cube: literals sorted, duplicates
// removed. It returns ok=false if the cube contains a literal and its
// complement (algebraically null product).
func NewCube(lits ...Lit) (Cube, bool) {
	c := append(Cube(nil), lits...)
	sort.Slice(c, func(i, j int) bool { return c[i].Less(c[j]) })
	out := c[:0]
	for i, l := range c {
		if i > 0 && l == c[i-1] {
			continue
		}
		if i > 0 && l.Node == c[i-1].Node && l.Neg != c[i-1].Neg {
			return nil, false
		}
		out = append(out, l)
	}
	return out, true
}

// Contains reports whether the cube includes literal l.
func (c Cube) Contains(l Lit) bool {
	i := sort.Search(len(c), func(i int) bool { return !c[i].Less(l) })
	return i < len(c) && c[i] == l
}

// ContainsAll reports whether every literal of d appears in c.
func (c Cube) ContainsAll(d Cube) bool {
	i := 0
	for _, l := range d {
		for i < len(c) && c[i].Less(l) {
			i++
		}
		if i >= len(c) || c[i] != l {
			return false
		}
		i++
	}
	return true
}

// Merge returns the normalized union of c and d.
func (c Cube) Merge(d Cube) (Cube, bool) {
	return NewCube(append(append(Cube(nil), c...), d...)...)
}

// Clone returns an independent copy of c.
func (c Cube) Clone() Cube { return append(Cube(nil), c...) }

// key returns a canonical string key for maps.
func (c Cube) key() string {
	var b strings.Builder
	for _, l := range c {
		if l.Neg {
			b.WriteByte('!')
		}
		b.WriteString(nodeIDString(l.Node))
		b.WriteByte('.')
	}
	return b.String()
}

// Sop is a sum of cubes: the algebraic expression form used by the
// technology-independent optimizer.
type Sop []Cube

// NewSop normalizes a cube list: each cube normalized, null cubes
// dropped, duplicate cubes removed, single-cube containment applied
// (a + ab = a), cubes sorted canonically.
func NewSop(cubes ...Cube) Sop {
	var s Sop
	for _, c := range cubes {
		nc, ok := NewCube(c...)
		if !ok {
			continue
		}
		s = append(s, nc)
	}
	s.normalize()
	return s
}

func (s *Sop) normalize() {
	in := *s
	sort.Slice(in, func(i, j int) bool {
		if len(in[i]) != len(in[j]) {
			return len(in[i]) < len(in[j])
		}
		return in[i].key() < in[j].key()
	})
	var out Sop
	for _, c := range in {
		dup := false
		for _, k := range out {
			if c.ContainsAll(k) { // k ⊆ c means k absorbs c
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	*s = out
}

// NumLiterals returns the total literal count.
func (s Sop) NumLiterals() int {
	n := 0
	for _, c := range s {
		n += len(c)
	}
	return n
}

// Support returns the sorted distinct node IDs referenced by s.
func (s Sop) Support() []NodeID {
	seen := map[NodeID]bool{}
	for _, c := range s {
		for _, l := range c {
			seen[l.Node] = true
		}
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Eval evaluates s given the value of every node.
func (s Sop) Eval(val []bool) bool {
	for _, c := range s {
		ok := true
		for _, l := range c {
			if val[l.Node] == l.Neg {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Rename substitutes every reference to old with new, renormalizing.
func (s Sop) Rename(old, new NodeID) Sop {
	out := make([]Cube, 0, len(s))
	for _, c := range s {
		nc := c.Clone()
		for i, l := range nc {
			if l.Node == old {
				nc[i].Node = new
			}
		}
		out = append(out, nc)
	}
	return NewSop(out...)
}

func nodeIDString(id NodeID) string {
	// Small fast positive-int formatter to keep key() cheap.
	if id == 0 {
		return "0"
	}
	neg := id < 0
	if neg {
		id = -id
	}
	var buf [20]byte
	i := len(buf)
	for id > 0 {
		i--
		buf[i] = byte('0' + id%10)
		id /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
