package bnet

import (
	"fmt"
	"sort"
)

// ExtractReport summarizes an extraction run.
type ExtractReport struct {
	Iterations     int
	LiteralsBefore int
	LiteralsAfter  int
	NewNodes       int
}

// String implements fmt.Stringer.
func (r ExtractReport) String() string {
	return fmt.Sprintf("extract: %d divisors, literals %d -> %d",
		r.NewNodes, r.LiteralsBefore, r.LiteralsAfter)
}

// FastExtractOptions tunes the scalable extraction pass.
type FastExtractOptions struct {
	// MinPairCount is the minimum occurrence count for a literal pair
	// to be extracted (default 4).
	MinPairCount int
}

// Fixed pair-extraction bounds.
const (
	// fastExtractMaxRounds bounds the pair-extraction rounds.
	fastExtractMaxRounds = 40
	// fastExtractMaxPairsPerRound bounds how many disjoint pairs are
	// extracted per round.
	fastExtractMaxPairsPerRound = 256
)

func (o *FastExtractOptions) defaults() {
	if o.MinPairCount == 0 {
		o.MinPairCount = 4
	}
}

// FastExtract is the shared-divisor extraction behind the SIS
// baseline at every size. It captures the two dominant sharing
// mechanisms of SIS on PLA-born networks while staying near-linear in
// network size:
//
//  1. identical product terms used by several node functions are
//     extracted once and shared (term sharing across output cones);
//  2. repeated rounds extract frequently co-occurring literal pairs
//     into new AND nodes (common-cube extraction), processing a batch
//     of disjoint pairs per round.
//
// Both rewrites are purely algebraic, so the network function is
// preserved exactly. Like SIS's fx, the result is a literal-minimized
// network whose shared nodes have high fanout — the structural
// signature whose congestion cost the paper measures.
func FastExtract(n *Network, opts FastExtractOptions) ExtractReport {
	opts.defaults()
	rep := ExtractReport{LiteralsBefore: n.NumLiterals()}

	rep.NewNodes += shareIdenticalCubes(n)

	for round := 0; round < fastExtractMaxRounds; round++ {
		extracted := extractPairBatch(n, opts)
		rep.NewNodes += extracted
		rep.Iterations++
		if extracted == 0 {
			break
		}
	}
	rep.LiteralsAfter = n.NumLiterals()
	return rep
}

// shareIdenticalCubes extracts every multi-literal cube that appears
// in two or more node functions (or twice in one) into a node of its
// own, replacing the occurrences with a single literal.
func shareIdenticalCubes(n *Network) int {
	counts := map[string]int{}
	ids := n.InternalIDs()
	for _, id := range ids {
		for _, c := range n.Node(id).Fn {
			if len(c) >= 2 {
				counts[c.key()]++
			}
		}
	}
	made := 0
	nodeOf := map[string]NodeID{}
	for _, id := range ids {
		fn := n.Node(id).Fn
		changed := false
		out := make([]Cube, 0, len(fn))
		for _, c := range fn {
			if len(c) >= 2 {
				k := c.key()
				if counts[k] >= 2 {
					nid, ok := nodeOf[k]
					if !ok {
						nid = n.AddInternal(autoName(n), Sop{c.Clone()})
						nodeOf[k] = nid
						made++
					}
					if nid != id { // never self-reference
						out = append(out, Cube{Lit{Node: nid}})
						changed = true
						continue
					}
				}
			}
			out = append(out, c)
		}
		if changed {
			n.SetFn(id, NewSop(out...))
		}
	}
	return made
}

// extractPairBatch counts literal-pair co-occurrence across the whole
// network, selects the best disjoint pairs, and extracts each as a new
// two-literal AND node.
func extractPairBatch(n *Network, opts FastExtractOptions) int {
	type pair struct{ a, b Lit }
	counts := map[pair]int{}
	ids := n.InternalIDs()
	for _, id := range ids {
		for _, c := range n.Node(id).Fn {
			for i := 0; i < len(c); i++ {
				for j := i + 1; j < len(c); j++ {
					counts[pair{c[i], c[j]}]++
				}
			}
		}
	}
	type scored struct {
		p pair
		n int
	}
	cands := make([]scored, 0, len(counts))
	for p, c := range counts {
		if c >= opts.MinPairCount {
			cands = append(cands, scored{p, c})
		}
	}
	if len(cands) == 0 {
		return 0
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		pi, pj := cands[i].p, cands[j].p
		if pi.a != pj.a {
			return pi.a.Less(pj.a)
		}
		return pi.b.Less(pj.b)
	})
	// Select disjoint pairs greedily so one batch application is
	// unambiguous.
	used := map[Lit]bool{}
	var chosen []pair
	for _, s := range cands {
		if len(chosen) >= fastExtractMaxPairsPerRound {
			break
		}
		if used[s.p.a] || used[s.p.b] {
			continue
		}
		used[s.p.a] = true
		used[s.p.b] = true
		chosen = append(chosen, s.p)
	}
	// Create the AND nodes and index both literals of each pair.
	// Pairs are literal-disjoint, so each literal keys at most one.
	byLit := make(map[Lit]pairRepl, 2*len(chosen))
	made := 0
	for _, p := range chosen {
		cube, ok := NewCube(p.a, p.b)
		if !ok {
			continue
		}
		id := n.AddInternal(autoName(n), Sop{cube})
		div := Lit{Node: id}
		byLit[p.a] = pairRepl{partner: p.b, div: div}
		byLit[p.b] = pairRepl{partner: p.a, div: div}
		made++
	}
	if made == 0 {
		return 0
	}
	newIDs := map[NodeID]bool{}
	for _, pr := range byLit {
		newIDs[pr.div.Node] = true
	}
	for _, id := range ids {
		if newIDs[id] {
			continue
		}
		fn := n.Node(id).Fn
		changed := false
		out := make([]Cube, 0, len(fn))
		for _, c := range fn {
			nc, rewritten := rewriteCube(c, byLit)
			changed = changed || rewritten
			out = append(out, nc)
		}
		if changed {
			n.SetFn(id, NewSop(out...))
		}
	}
	return made
}

// pairRepl records, for one literal of a chosen pair, its partner
// literal and the divisor node replacing the pair.
type pairRepl struct {
	partner Lit
	div     Lit
}

// rewriteCube replaces every chosen pair whose two literals both occur
// in the cube with the pair's divisor literal. It reports whether the
// cube changed.
func rewriteCube(c Cube, byLit map[Lit]pairRepl) (Cube, bool) {
	var lits []Lit
	changed := false
	for _, l := range c {
		pr, ok := byLit[l]
		if !ok || !c.Contains(pr.partner) {
			lits = append(lits, l)
			continue
		}
		changed = true
		if l.Less(pr.partner) {
			lits = append(lits, pr.div) // emit once per pair
		}
	}
	if !changed {
		return c, false
	}
	nc, ok := NewCube(lits...)
	if !ok {
		// Cannot happen: divisor literals are fresh positive nodes.
		return c, false
	}
	return nc, true
}

func autoName(n *Network) string {
	return "fx" + nodeIDString(NodeID(n.NumNodes()))
}
