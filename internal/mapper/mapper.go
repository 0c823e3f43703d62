// Package mapper implements the paper's primary contribution: the
// congestion-aware technology-mapping pipeline of Section 3.
//
// The pipeline is:
//
//  1. place the technology-independent netlist (base gates) on the
//     chip layout image (SubjectPlacement);
//  2. partition the subject DAG into trees — placement-driven (PDP) by
//     default (package partition);
//  3. match library patterns on each tree (package match);
//  4. cover each tree by dynamic programming with
//     COST = AREA + K·WIRE (package cover);
//  5. reconstruct the mapped gate-level netlist, duplicating logic
//     where a multi-fanout vertex was covered inside another tree.
//
// K = 0 reproduces DAGON-style minimum-area mapping — the baseline the
// paper compares against in every table.
package mapper

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/netlist"
	"casyn/internal/partition"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// Options configures a mapping run.
type Options struct {
	// K is the congestion minimization factor (Eq. 5); 0 = min area.
	K float64
	// Method is the DAG partitioning scheme (default PDP).
	Method partition.Method
	// Lib is the cell library (default library.Default()).
	Lib *library.Library
	// TransitiveWire / NoWire2 are the ablation switches forwarded to
	// the coverer.
	TransitiveWire bool
	NoWire2        bool
	// Workers bounds the goroutines of the per-tree covering fan-out
	// (0 = runtime.GOMAXPROCS, 1 = serial); forwarded to the coverer.
	// The mapped result is identical for every value.
	Workers int
}

func (o *Options) defaults() {
	if o.Lib == nil {
		o.Lib = library.Default()
	}
}

// Input is the placement context for mapping.
type Input struct {
	// Pos is the position of every subject gate on the layout image
	// (PIs at their pad locations).
	Pos []geom.Point
	// POPads optionally maps a gate ID to the pad locations of the POs
	// it drives (consumed by PDP partitioning).
	POPads map[int][]geom.Point
}

// Result is a completed mapping.
type Result struct {
	Netlist *netlist.Netlist
	// CellArea is the total mapped cell area (µm²), including
	// duplicated logic.
	CellArea float64
	// NumCells is the mapped instance count.
	NumCells int
	// DuplicatedCells counts instances created by cross-tree logic
	// duplication.
	DuplicatedCells int
	// WireEstimate is the covering's Eq. 4 total over tree roots.
	WireEstimate float64
	// InstGate maps each instance index to the subject gate whose
	// signal it produces.
	InstGate []int
	// SigGate maps each signal to the subject gate driving it: the
	// instance's root gate, the PI, or the constant.
	SigGate []int
	// Forest is the partition used.
	Forest *partition.Forest
}

// Map runs the full pipeline on an already-placed subject DAG at
// opts.K: Prepare, then MapStateful. The expensive covering DP checks
// ctx cooperatively; a canceled ctx returns promptly with a wrapped
// ctx error.
func Map(ctx context.Context, d *subject.DAG, in Input, opts Options) (*Result, error) {
	prep, err := Prepare(ctx, d, in, opts)
	if err != nil {
		return nil, err
	}
	res, _, err := MapStateful(ctx, prep, opts.K, nil)
	return res, err
}

// reconstruct builds the mapped netlist from the covering solutions,
// instantiating duplicated logic for cross-tree references to gates
// that the chosen covers swallowed. All bookkeeping is dense slices
// indexed by gate ID, and the cover walks use explicit stacks — tree
// depth is unbounded on the full-size circuits.
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

// instanceNames hands out the instance names "u0", "u1", … in order,
// as substrings of one string per batch of names: naming a netlist's
// instances costs an allocation per batch, not one per instance.
type instanceNames struct {
	// batch is how many names the next string holds.
	batch int
	// rest holds the names built but not yet handed out, back to back;
	// each starts with its 'u'. from is the index of the first.
	rest string
	from int
}

// next returns the name of the next instance.
func (n *instanceNames) next() string {
	if n.rest == "" {
		var sb strings.Builder
		end := n.from + max(n.batch, 64)
		sb.Grow((end - n.from) * (1 + len(strconv.Itoa(end))))
		var digits [20]byte
		for i := n.from; i < end; i++ {
			sb.WriteByte('u')
			sb.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		}
		n.rest = sb.String()
		n.batch /= 4 // an overrun is the few percent of duplicated logic
	}
	end := strings.IndexByte(n.rest[1:], 'u') + 1
	if end == 0 {
		end = len(n.rest)
	}
	name := n.rest[:end]
	n.rest = n.rest[end:]
	n.from++
	return name
}

// SubjectPlacement places the technology-independent netlist on the
// layout image and returns the per-gate positions plus the pad
// bookkeeping mapping needs. PI gates take their pad positions; every
// live base gate is placed by recursive bisection. The returned
// piPads/poPads are perimeter pad assignments in PI/PO declaration
// order.
func SubjectPlacement(ctx context.Context, d *subject.DAG, layout place.Layout, popts place.Options) (pos []geom.Point, poPads map[int][]geom.Point, piPads, poPadList []geom.Point, err error) {
	live := d.LiveGates()
	cellOf := make(map[int]int)
	var widths []float64
	baseW := library.Default().Nand2().Width()
	for _, g := range live {
		t := d.Gate(g).Type
		if t == subject.Nand2 || t == subject.Inv {
			cellOf[g] = len(widths)
			widths = append(widths, baseW)
		}
	}
	// Perimeter pads: PIs then POs, evenly interleaved.
	nPI, nPO := len(d.PIs()), len(d.Outputs())
	pads := layout.PerimeterPads(nPI + nPO)
	piPads = pads[:nPI]
	poPadList = pads[nPI:]
	// Gate → pad index maps, built once; the per-live-gate loop below
	// must not rescan the PI and output lists (that was quadratic on
	// the PLA-style benchmarks, whose output counts are large).
	piIdx := make(map[int]int, nPI)
	for i, pi := range d.PIs() {
		piIdx[pi] = i
	}
	poIdx := make(map[int][]int, nPO)
	for i, o := range d.Outputs() {
		poIdx[o.Gate] = append(poIdx[o.Gate], i)
	}

	nl := &place.Netlist{Widths: widths}
	// One net per driving gate with at least one consumer.
	for _, g := range live {
		var cells []int
		var padPts []geom.Point
		if c, ok := cellOf[g]; ok {
			cells = append(cells, c)
		} else if i, ok := piIdx[g]; ok && d.Gate(g).Type == subject.PI {
			padPts = append(padPts, piPads[i])
		}
		for _, fo := range d.Fanouts(g) {
			if c, ok := cellOf[fo]; ok {
				cells = append(cells, c)
			}
		}
		for _, i := range poIdx[g] {
			padPts = append(padPts, poPadList[i])
		}
		if len(cells)+len(padPts) >= 2 {
			nl.Nets = append(nl.Nets, place.Net{Cells: cells, Pads: padPts})
		}
	}
	pl, err := place.PlaceNetlist(ctx, nl, layout, popts)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pos = make([]geom.Point, d.NumGates())
	center := layout.Die.Center()
	for i := range pos {
		pos[i] = center
	}
	for g, c := range cellOf {
		pos[g] = pl.Pos[c]
	}
	for i, pi := range d.PIs() {
		pos[pi] = piPads[i]
	}
	poPads = make(map[int][]geom.Point)
	for i, o := range d.Outputs() {
		poPads[o.Gate] = append(poPads[o.Gate], poPadList[i])
	}
	return pos, poPads, piPads, poPadList, nil
}
