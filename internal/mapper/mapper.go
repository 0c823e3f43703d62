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
	"strconv"
	"strings"

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

// instanceNames hands out the instance names "u0", "u1", … in order,
// as substrings of one string per batch of names: naming a netlist's
// instances costs an allocation per batch, not one per instance. A
// patch takes the first names from its parent's instances, which bear
// the same names in the same order.
type instanceNames struct {
	// reuse holds instances whose names are handed out first.
	reuse []netlist.Instance
	// batch is how many names the next string holds.
	batch int
	// rest holds the names built but not yet handed out, back to back;
	// each starts with its 'u'. from is the index of the first.
	rest string
	from int
}

// next returns the name of the next instance.
func (n *instanceNames) next() string {
	if n.from < len(n.reuse) {
		n.from++
		return n.reuse[n.from-1].Name
	}
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
