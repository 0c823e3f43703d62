// Package match implements tree pattern matching: binding library-cell
// pattern trees (NAND2/INV trees with variable leaves) onto vertices of
// a subject tree.
//
// A match at a subject vertex identifies a set of subject gates the
// cell would replace (the covered gates) and the subject gates feeding
// the cell's input pins (the leaves, bound to the pattern variables).
// Matching honors the tree partition: an internal pattern node may only
// map onto a subject gate whose tree father is the pattern parent's
// gate — a match can never cross a tree edge that the partitioner cut.
package match

import (
	"casyn/internal/library"
	"casyn/internal/subject"
)

// Match is a successful binding of a cell pattern at a subject vertex.
type Match struct {
	Cell *library.Cell
	// PatternIndex identifies which of the cell's patterns matched.
	PatternIndex int
	// Root is the subject gate whose output the cell produces.
	Root int
	// Leaves are the subject gates bound to the pattern's variables,
	// ordered like Cell.Patterns[PatternIndex].Vars(). They are the
	// cell's input connections.
	Leaves []int
	// Covered lists the subject gates replaced by the cell, in the
	// pattern's pre-order; Covered[0] == Root.
	Covered []int
}

// Matcher finds matches within one subject tree.
type Matcher struct {
	dag *subject.DAG
	lib *library.Library
	// father[g] is g's tree father, or -1; only gates of the current
	// tree may be covered, and only through their father edge.
	father []int
	inTree func(gate int) bool
}

// NewMatcher builds a matcher for the subject tree identified by the
// inTree membership test and the forest's father relation.
func NewMatcher(dag *subject.DAG, lib *library.Library, father []int, inTree func(gate int) bool) *Matcher {
	return &Matcher{dag: dag, lib: lib, father: father, inTree: inTree}
}

// MatchesAt returns every library match rooted at the given tree
// vertex. Every NAND2 or INV vertex has at least one match (the base
// cell itself), so tree covering is always feasible.
func (m *Matcher) MatchesAt(root int) []Match {
	var out []Match
	for _, cell := range m.lib.Cells() {
		for pi, pat := range cell.Patterns {
			binding := map[string]int{}
			var covered []int
			if m.matchPattern(pat, root, -1, binding, &covered) {
				vars := pat.Vars()
				leaves := make([]int, len(vars))
				for i, v := range vars {
					leaves[i] = binding[v]
				}
				out = append(out, Match{
					Cell:         cell,
					PatternIndex: pi,
					Root:         root,
					Leaves:       leaves,
					Covered:      covered,
				})
				break // one matching pattern per cell suffices
			}
		}
	}
	return out
}

// matchPattern recursively binds pattern p at subject gate g. parent
// is the subject gate of the enclosing pattern node, or -1 at the
// pattern root. Internal pattern nodes require:
//
//   - the gate type matches the pattern operator,
//   - the gate belongs to the current tree, and
//   - for non-root nodes, the gate's tree father is parent (the match
//     consumes the gate through its one uncut edge).
func (m *Matcher) matchPattern(p *library.Pattern, g, parent int, binding map[string]int, covered *[]int) bool {
	if p.Op == library.OpVar {
		if bound, ok := binding[p.Var]; ok {
			return bound == g // repeated variable: must bind same gate
		}
		binding[p.Var] = g
		return true
	}
	gate := m.dag.Gate(g)
	switch p.Op {
	case library.OpInv:
		if gate.Type != subject.Inv {
			return false
		}
	case library.OpNand2:
		if gate.Type != subject.Nand2 {
			return false
		}
	default:
		return false
	}
	if !m.inTree(g) {
		return false
	}
	if parent >= 0 && m.father[g] != parent {
		return false
	}
	if p.Op == library.OpInv {
		*covered = append(*covered, g)
		return m.matchPattern(p.Kids[0], gate.In[0], g, binding, covered)
	}
	mark := len(*covered)
	*covered = append(*covered, g)
	a, b := gate.In[0], gate.In[1]
	// Try both input orders; patterns are not canonicalized for
	// commutativity.
	save := snapshot(binding)
	if m.matchPattern(p.Kids[0], a, g, binding, covered) &&
		m.matchPattern(p.Kids[1], b, g, binding, covered) {
		return true
	}
	restore(binding, save)
	*covered = (*covered)[:mark+1]
	if m.matchPattern(p.Kids[0], b, g, binding, covered) &&
		m.matchPattern(p.Kids[1], a, g, binding, covered) {
		return true
	}
	restore(binding, save)
	*covered = (*covered)[:mark]
	return false
}

func snapshot(b map[string]int) map[string]int {
	s := make(map[string]int, len(b))
	for k, v := range b {
		s[k] = v
	}
	return s
}

func restore(b, s map[string]int) {
	for k := range b {
		if _, ok := s[k]; !ok {
			delete(b, k)
		}
	}
	for k, v := range s {
		b[k] = v
	}
}
