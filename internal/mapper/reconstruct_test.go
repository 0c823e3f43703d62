package mapper

import (
	"fmt"
	"slices"

	"casyn/internal/cover"
	"casyn/internal/netlist"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// reconstruct is the full netlist rebuild that emit replaced, kept as
// its bit-for-bit oracle: it builds the mapped netlist from the
// covering solutions, instantiating duplicated logic for cross-tree
// references to gates that the chosen covers swallowed. All
// bookkeeping is dense slices indexed by gate ID, and the cover walks
// use explicit stacks — tree depth is unbounded on the full-size
// circuits.
func reconstruct(d *subject.DAG, forest *partition.Forest, cov *cover.Result) (*Result, error) {
	// Visible gates: match roots of every tree's chosen cover. Their
	// signals exist without duplication. A solution's subtree-leaf
	// flags name the leaves the chosen cover descends into.
	visible := make([]bool, d.NumGates())
	numVisible, numPins := 0, 0
	var walk []int
	for _, root := range forest.Roots {
		walk = append(walk[:0], root)
		for len(walk) > 0 {
			v := walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			sol := cov.Best[v]
			if !visible[v] {
				visible[v] = true
				numVisible++
				numPins += len(sol.Match.Leaves)
			}
			for li, l := range sol.Match.Leaves {
				if sol.SubtreeLeaf(li) {
					walk = append(walk, l)
				}
			}
		}
	}

	// Every visible gate becomes an instance; duplicated logic adds
	// more, typically a few percent up to ~11% (full-size TOO_LARGE at
	// K=0.5). A quarter of headroom covers that, so the netlist's arrays
	// are not re-copied as they fill; an overrun costs one regrowth.
	numCells := numVisible + numVisible/4
	nl := netlist.New()
	nl.Reserve(len(d.PIs())+numCells, numCells, numPins+numPins/4)
	res := &Result{Netlist: nl, Forest: forest, WireEstimate: cov.RootWire,
		InstGate: slices.Grow([]int(nil), numCells),
		SigGate:  slices.Grow([]int(nil), len(d.PIs())+numCells)}

	sigOf := make([]netlist.SigID, d.NumGates())
	haveSig := make([]bool, d.NumGates())
	setSig := func(g int, s netlist.SigID) {
		sigOf[g] = s
		haveSig[g] = true
		res.SigGate = append(res.SigGate, g) // s is the newest signal
	}
	// Primary inputs and constants first.
	for _, pi := range d.PIs() {
		setSig(pi, nl.AddSignal(d.Gate(pi).Name, netlist.SigPI))
	}
	for g := 0; g < d.NumGates(); g++ {
		switch d.Gate(g).Type {
		case subject.Const0:
			setSig(g, nl.AddSignal("const0", netlist.SigConst0))
		case subject.Const1:
			setSig(g, nl.AddSignal("const1", netlist.SigConst1))
		}
	}

	// instantiate emits the instance producing g's signal, first
	// emitting its match leaves. The recursion is a two-phase stack:
	// a frame's first visit pushes its leaf frames (reversed, so they
	// complete in leaf order and instance names match the recursive
	// formulation); the revisit finds every leaf signal present and
	// creates the instance.
	type frame struct {
		g        int
		dup      bool
		expanded bool
	}
	var stack []frame
	var inputs []netlist.SigID // leaf signals; AddInstance copies them
	names := instanceNames{batch: numCells}
	instantiate := func(g int, dup bool) error {
		stack = append(stack[:0], frame{g: g, dup: dup})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if haveSig[f.g] {
				stack = stack[:len(stack)-1]
				continue
			}
			sol := cov.Best[f.g]
			if sol == nil {
				return fmt.Errorf("mapper: no covering solution for gate %d (%s)", f.g, d.Gate(f.g).Type)
			}
			if !f.expanded {
				f.expanded = true
				leaves := sol.Match.Leaves
				for i := len(leaves) - 1; i >= 0; i-- {
					l := leaves[i]
					if haveSig[l] {
						continue
					}
					// A leaf heading an in-tree subtree inherits this
					// gate's duplication status; a cross reference is a
					// duplicate only if its signal is not already
					// visible.
					leafDup := f.dup
					if !sol.SubtreeLeaf(i) {
						leafDup = !visible[l] && d.Gate(l).Type != subject.PI &&
							d.Gate(l).Type != subject.Const0 && d.Gate(l).Type != subject.Const1
					}
					// f may be invalidated by the append; re-read nothing
					// from it after this point in the loop.
					stack = append(stack, frame{g: l, dup: leafDup})
				}
				continue
			}
			inputs = inputs[:0]
			for _, l := range sol.Match.Leaves {
				inputs = append(inputs, sigOf[l])
			}
			_, out := nl.AddInstance(names.next(), sol.Match.Cell, sol.Match.PatternIndex, inputs, sol.Pos)
			res.InstGate = append(res.InstGate, f.g)
			if f.dup {
				res.DuplicatedCells++
			}
			setSig(f.g, out)
			stack = stack[:len(stack)-1]
		}
		return nil
	}

	// Instantiate all visible gates in ascending (topological) gate-ID
	// order, then resolve the primary outputs.
	for g := 0; g < d.NumGates(); g++ {
		if visible[g] {
			if err := instantiate(g, false); err != nil {
				return nil, err
			}
		}
	}
	for _, o := range d.Outputs() {
		if !haveSig[o.Gate] {
			if err := instantiate(o.Gate, true); err != nil {
				return nil, err
			}
		}
		nl.AddPO(o.Name, sigOf[o.Gate])
	}

	res.CellArea = nl.CellArea()
	res.NumCells = nl.NumCells()
	if err := nl.Check(); err != nil {
		return nil, err
	}
	return res, nil
}
