package mapper

// This file builds the mapped netlist from a cover. One routine, emit,
// serves both the full build (MapStateful) and the ECO patch (MapECO);
// the patch is the same walk with the parent's netlist to copy from.
//
// The netlist's layout follows from three facts. Signals are the
// primary inputs, then the constants, then one signal per instance, so
// instance i drives signal P+i (P the primary-input and constant
// count) and is named "u<i>". Instances are emitted in segments, one
// per visible gate (a match root of some tree's chosen cover) in
// ascending gate ID: the segment duplicates, leaf chain first, every
// swallowed gate the gate's match reads that has no signal yet, then
// emits the gate's own cell. The primary outputs' segments follow.
// And ECO edits rewrite gates in place, so gate IDs, and with them the
// segments, carry over from the parent's netlist to the successor's.
//
// A patch therefore walks the covers of the dirty trees only, to find
// their visible gates (a clean tree keeps every solution, so its
// visible gates are the parent's), and then lays the successor out
// segment by segment. A segment the parent's netlist also has is
// copied from it, its signals renumbered through the gates that drive
// them, once a check proves the walk would emit exactly those
// instances (copySegment); any other segment is walked afresh. The
// output is byte-identical to a full build of the same cover.

import (
	"fmt"
	"slices"

	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/netlist"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// emission records how a netlist's instances were laid out: the
// segment of every visible gate. A CoverState keeps it beside its
// netlist, so a successor can copy the segments its edit left alone.
type emission struct {
	// gates lists the visible gates ascending; the segment of gates[k]
	// is instances [end[k-1], end[k]) (from 0 for the first). The
	// primary outputs' segments follow end[len-1].
	gates []int32
	end   []int32
	// pins counts the instances' inputs, and copied the instances a
	// patch copied from its parent's netlist.
	pins, copied int
	// copyable reports that no visible gate was emitted inside another
	// gate's segment, as holds whenever gate IDs are topological: every
	// instance of a segment but its last is then a duplicate. Only a
	// copyable record is copied from.
	copyable bool
}

// patchBase is what a patch reads of its parent, all read-only: the
// parent's netlist, cover and emission record, and the roots of the
// successor's dirty trees.
type patchBase struct {
	res        *Result
	cov        *cover.Result
	rec        *emission
	dirtyRoots []int
}

// emitter is the state of one emit call.
type emitter struct {
	d    *subject.DAG
	cov  *cover.Result
	base *patchBase
	nl   *netlist.Netlist
	res  *Result
	// visible flags the match roots of every tree's chosen cover.
	visible []bool
	// sig is each gate's signal, -1 until it has one.
	sig    []int32
	rec    *emission
	names  instanceNames
	stack  []frame
	inputs []netlist.SigID
}

// frame is one gate of instantiate's walk.
type frame struct {
	g        int
	dup      bool
	expanded bool
}

// emit builds the mapped netlist of cov and its emission record. With
// a base it patches the base's netlist rather than walking every
// segment; the result is the same either way.
func emit(d *subject.DAG, forest *partition.Forest, cov *cover.Result, base *patchBase) (*Result, *emission, error) {
	n := d.NumGates()
	e := &emitter{d: d, cov: cov, base: base, visible: make([]bool, n), sig: make([]int32, n)}
	order, pins := e.visibleGates(forest)
	e.rec = &emission{gates: order, end: make([]int32, len(order)), copyable: true}

	// Every visible gate becomes an instance; duplicated logic adds
	// more, typically a few percent up to ~11% (full-size TOO_LARGE at
	// K=0.5). A quarter of headroom covers that, so the netlist's arrays
	// are not re-copied as they fill; an overrun costs one regrowth. A
	// patch is within a few cells of its parent and takes its first
	// names from the parent's instances.
	numCells, numPins := len(order)+len(order)/4, pins+pins/4
	e.names = instanceNames{batch: numCells}
	if base != nil {
		parent := base.res.Netlist.Instances
		numCells, numPins = len(parent)+len(parent)/64+64, pins+pins/64+64
		e.names = instanceNames{batch: 64, reuse: parent}
	}
	nPI := len(d.PIs())
	e.nl = netlist.New()
	e.nl.Reserve(nPI+numCells, numCells, numPins)
	e.res = &Result{Netlist: e.nl, Forest: forest, WireEstimate: cov.RootWire,
		InstGate: slices.Grow([]int(nil), numCells),
		SigGate:  slices.Grow([]int(nil), nPI+numCells)}

	for g := range e.sig {
		e.sig[g] = -1
	}
	// Primary inputs and constants first.
	for _, pi := range d.PIs() {
		e.setSig(pi, e.nl.AddSignal(d.Gate(pi).Name, netlist.SigPI))
	}
	for g := 0; g < n; g++ {
		switch d.Gate(g).Type {
		case subject.Const0:
			e.setSig(g, e.nl.AddSignal("const0", netlist.SigConst0))
		case subject.Const1:
			e.setSig(g, e.nl.AddSignal("const1", netlist.SigConst1))
		}
	}

	// One segment per visible gate, in ascending (topological) gate-ID
	// order, then the primary outputs. A patch copies the segments the
	// parent has and the check admits; prev steps through the parent's
	// record in step with order.
	copyFrom := base != nil && base.rec.copyable
	prev := 0
	for k, g32 := range order {
		g := int(g32)
		copied := false
		if copyFrom {
			pr := base.rec
			for prev < len(pr.gates) && pr.gates[prev] < g32 {
				prev++
			}
			if prev < len(pr.gates) && pr.gates[prev] == g32 {
				lo := int32(0)
				if prev > 0 {
					lo = pr.end[prev-1]
				}
				copied = e.copySegment(g, int(lo), int(pr.end[prev]))
			}
		}
		if !copied {
			if err := e.instantiate(g, false); err != nil {
				return nil, nil, err
			}
		}
		e.rec.end[k] = int32(len(e.nl.Instances))
	}
	for _, o := range d.Outputs() {
		if e.sig[o.Gate] < 0 {
			if err := e.instantiate(o.Gate, true); err != nil {
				return nil, nil, err
			}
		}
		e.nl.AddPO(o.Name, netlist.SigID(e.sig[o.Gate]))
	}
	res := e.res
	res.CellArea = e.nl.CellArea()
	res.NumCells = e.nl.NumCells()
	if err := e.nl.Check(); err != nil {
		return nil, nil, err
	}
	return res, e.rec, nil
}

// visibleGates marks the visible gates — the match roots of every
// tree's chosen cover, whose signals exist without duplication — and
// returns them ascending, with their pin count (a patch returns its
// parent's netlist's). A solution's subtree-leaf flags name the leaves
// the chosen cover descends into. A patch walks only the dirty trees:
// a clean tree has its parent's members and solutions, so its visible
// gates are the parent's.
func (e *emitter) visibleGates(forest *partition.Forest) ([]int32, int) {
	var walk []int
	numVisible, pins := 0, 0
	mark := func(root int) {
		walk = append(walk[:0], root)
		for len(walk) > 0 {
			v := walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			sol := e.cov.Best[v]
			if !e.visible[v] {
				e.visible[v] = true
				numVisible++
				pins += len(sol.Match.Leaves)
			}
			for li, l := range sol.Match.Leaves {
				if sol.SubtreeLeaf(li) {
					walk = append(walk, l)
				}
			}
		}
	}
	if e.base == nil {
		for _, root := range forest.Roots {
			mark(root)
		}
	} else {
		rootOf := forest.RootOf()
		dirty := make([]bool, len(e.visible))
		for _, r := range e.base.dirtyRoots {
			dirty[r] = true
		}
		for _, g := range e.base.rec.gates {
			if r := rootOf[g]; r >= 0 && !dirty[r] {
				e.visible[g] = true
				numVisible++
			}
		}
		for _, r := range e.base.dirtyRoots {
			mark(r)
		}
		pins = e.base.rec.pins
	}
	order := make([]int32, 0, numVisible)
	for g, v := range e.visible {
		if v {
			order = append(order, int32(g))
		}
	}
	return order, pins
}

// setSig records s, the newest signal, as gate g's.
func (e *emitter) setSig(g int, s netlist.SigID) {
	e.sig[g] = int32(s)
	e.res.SigGate = append(e.res.SigGate, g)
}

// add emits the instance producing gate g's signal from e.inputs.
func (e *emitter) add(g int, cell *library.Cell, patternIndex int, pos geom.Point, dup bool) {
	_, out := e.nl.AddInstance(e.names.next(), cell, patternIndex, e.inputs, pos)
	e.res.InstGate = append(e.res.InstGate, g)
	if dup {
		e.res.DuplicatedCells++
	}
	e.rec.pins += len(e.inputs)
	e.setSig(g, out)
}

// instantiate walks the segment of g: it emits the instance producing
// g's signal, first emitting its match leaves. The recursion is a
// two-phase stack: a frame's first visit pushes its leaf frames
// (reversed, so they complete in leaf order and instance names match
// the recursive formulation); the revisit finds every leaf signal
// present and creates the instance.
func (e *emitter) instantiate(g int, dup bool) error {
	d := e.d
	e.stack = append(e.stack[:0], frame{g: g, dup: dup})
	for len(e.stack) > 0 {
		f := &e.stack[len(e.stack)-1]
		if e.sig[f.g] >= 0 {
			e.stack = e.stack[:len(e.stack)-1]
			continue
		}
		sol := e.cov.Best[f.g]
		if sol == nil {
			return fmt.Errorf("mapper: no covering solution for gate %d (%s)", f.g, d.Gate(f.g).Type)
		}
		if !f.expanded {
			f.expanded = true
			leaves := sol.Match.Leaves
			for i := len(leaves) - 1; i >= 0; i-- {
				l := leaves[i]
				if e.sig[l] >= 0 {
					continue
				}
				// A leaf heading an in-tree subtree inherits this
				// gate's duplication status; a cross reference is a
				// duplicate only if its signal is not already
				// visible.
				leafDup := f.dup
				if !sol.SubtreeLeaf(i) {
					leafDup = !e.visible[l] && d.Gate(l).Type != subject.PI &&
						d.Gate(l).Type != subject.Const0 && d.Gate(l).Type != subject.Const1
				}
				// f may be invalidated by the append; re-read nothing
				// from it after this point in the loop.
				e.stack = append(e.stack, frame{g: l, dup: leafDup})
			}
			continue
		}
		e.inputs = e.inputs[:0]
		for _, l := range sol.Match.Leaves {
			e.inputs = append(e.inputs, netlist.SigID(e.sig[l]))
		}
		if f.g != g && !dup && e.visible[f.g] {
			e.rec.copyable = false
		}
		e.add(f.g, sol.Match.Cell, sol.Match.PatternIndex, sol.Pos, f.dup)
		e.stack = e.stack[:len(e.stack)-1]
	}
	return nil
}

// copySegment emits visible gate g's segment as a copy of the parent's
// instances [lo, hi), and reports false, having emitted nothing, when
// the walk would emit anything else. The walk reads, per instance, the
// gate's solution, whether the gate has a signal yet and whether it is
// visible, and the signals of the solution's leaves. So the copy is
// exact when every instance's gate keeps its solution (pointer-equal:
// solutions are immutable and shared), has no signal yet and, but for
// g's own last instance, is not visible; and when every input reads a
// gate that already has a signal, through the copy so far included.
// Then each input is the signal of the gate that drove it in the
// parent, every instance but g's own is a duplicate, and each copy
// takes the name of its new index.
func (e *emitter) copySegment(g, lo, hi int) bool {
	if lo == hi {
		return e.sig[g] >= 0
	}
	old, oldInst, oldSig := e.base.res.Netlist, e.base.res.InstGate, e.base.res.SigGate
	// Check the instances in order, each taking its signal as it
	// passes, since the segment's later inputs read it; a failure
	// takes the signals back.
	next := int32(len(e.nl.Signals))
	for j := lo; j < hi; j++ {
		if !e.copies(g, j, j == hi-1) {
			for k := lo; k < j; k++ {
				e.sig[oldInst[k]] = -1
			}
			return false
		}
		e.sig[oldInst[j]] = next + int32(j-lo)
	}
	for j := lo; j < hi; j++ {
		inst := &old.Instances[j]
		e.inputs = e.inputs[:0]
		for _, s := range inst.Inputs {
			e.inputs = append(e.inputs, netlist.SigID(e.sig[oldSig[s]]))
		}
		e.add(oldInst[j], inst.Cell, inst.PatternIndex, inst.Pos, j < hi-1)
	}
	e.rec.copied += hi - lo
	return true
}

// copies reports whether the walk of g's segment would emit the
// parent's instance j here, the segment's last when last is set.
func (e *emitter) copies(g, j int, last bool) bool {
	x := e.base.res.InstGate[j]
	if e.sig[x] >= 0 || e.cov.Best[x] != e.base.cov.Best[x] || last != (x == g) || (!last && e.visible[x]) {
		return false
	}
	for _, s := range e.base.res.Netlist.Instances[j].Inputs {
		if e.sig[e.base.res.SigGate[s]] < 0 {
			return false
		}
	}
	return true
}
