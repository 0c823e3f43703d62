// Package netlist implements the technology-mapped gate-level netlist:
// library-cell instances connected by signals, with the reports the
// experiments need (cell area, cell counts, utilization) and the
// conversion to a placement hypergraph.
package netlist

import (
	"fmt"
	"slices"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/place"
)

// SigID identifies a signal (net) in the netlist.
type SigID int

// SigKind classifies signal drivers.
type SigKind uint8

const (
	// SigGate is driven by a cell instance.
	SigGate SigKind = iota
	// SigPI is a primary input.
	SigPI
	// SigConst0 is the constant-false net.
	SigConst0
	// SigConst1 is the constant-true net.
	SigConst1
)

// Signal is one net of the mapped netlist.
type Signal struct {
	ID   SigID
	Name string
	Kind SigKind
	// Driver is the driving instance index for SigGate signals, -1
	// otherwise.
	Driver int
}

// Instance is one placed library cell.
type Instance struct {
	ID   int
	Name string
	Cell *library.Cell
	// PatternIndex selects the cell pattern whose variable order the
	// Inputs follow.
	PatternIndex int
	// Inputs are the input signals in pattern-variable order: a
	// window of an array the netlist owns, capacity-clipped so an
	// append to it copies instead of overwriting a neighbor.
	Inputs []SigID
	// Output is the driven signal.
	Output SigID
	// Pos is the seed position from mapping (the match's center of
	// mass on the layout image).
	Pos geom.Point
}

// PO is a named primary output.
type PO struct {
	Name string
	Sig  SigID
}

// Netlist is a mapped design.
type Netlist struct {
	Signals   []Signal
	Instances []Instance
	PIs       []SigID
	POs       []PO

	// inputs backs the instances' Inputs windows. When it fills,
	// AddInstance starts a fresh array rather than growing this one,
	// so the windows already handed out never move.
	inputs []SigID
}

// New returns an empty netlist.
func New() *Netlist { return &Netlist{} }

// AddSignal appends a non-gate signal of the given kind.
func (n *Netlist) AddSignal(name string, kind SigKind) SigID {
	id := SigID(len(n.Signals))
	n.Signals = append(n.Signals, Signal{ID: id, Name: name, Kind: kind, Driver: -1})
	if kind == SigPI {
		n.PIs = append(n.PIs, id)
	}
	return id
}

// Reserve grows the netlist's capacity for at least signals more
// signals, instances more instances and pins more instance inputs, so
// a builder that knows its size up front does not re-copy the arrays
// as they fill.
func (n *Netlist) Reserve(signals, instances, pins int) {
	n.Signals = slices.Grow(n.Signals, signals)
	n.Instances = slices.Grow(n.Instances, instances)
	if cap(n.inputs)-len(n.inputs) < pins {
		n.inputs = make([]SigID, 0, pins)
	}
}

// AddInstance appends a cell instance driving a fresh signal and
// returns the instance index and output signal. The instance keeps a
// copy of inputs.
func (n *Netlist) AddInstance(name string, cell *library.Cell, patternIndex int, inputs []SigID, pos geom.Point) (int, SigID) {
	out := SigID(len(n.Signals))
	inst := len(n.Instances)
	if cap(n.inputs)-len(n.inputs) < len(inputs) {
		n.inputs = make([]SigID, 0, max(2*cap(n.inputs), len(inputs), 64))
	}
	lo := len(n.inputs)
	n.inputs = append(n.inputs, inputs...)
	n.Signals = append(n.Signals, Signal{ID: out, Name: name, Kind: SigGate, Driver: inst})
	n.Instances = append(n.Instances, Instance{
		ID: inst, Name: name, Cell: cell, PatternIndex: patternIndex,
		Inputs: n.inputs[lo:len(n.inputs):len(n.inputs)], Output: out, Pos: pos,
	})
	return inst, out
}

// AddPO marks a signal as the named primary output.
func (n *Netlist) AddPO(name string, sig SigID) {
	n.POs = append(n.POs, PO{Name: name, Sig: sig})
}

// NumCells returns the instance count.
func (n *Netlist) NumCells() int { return len(n.Instances) }

// CellArea returns the total cell area in µm².
func (n *Netlist) CellArea() float64 {
	a := 0.0
	for i := range n.Instances {
		a += n.Instances[i].Cell.Area
	}
	return a
}

// CellCounts returns instance counts per cell name.
func (n *Netlist) CellCounts() map[string]int {
	out := map[string]int{}
	for i := range n.Instances {
		out[n.Instances[i].Cell.Name]++
	}
	return out
}

// Check validates structural sanity: every instance input in range and
// with arity matching the cell, every signal driven consistently, and
// acyclicity of the instance graph.
func (n *Netlist) Check() error {
	// ordered records that every instance reads only signals driven
	// before it, the order the mapper emits in: such a netlist has no
	// cycle, and only another order needs the search in TopoOrder.
	ordered := true
	for i := range n.Instances {
		inst := &n.Instances[i]
		want := len(inst.Cell.Patterns[inst.PatternIndex].Vars())
		if len(inst.Inputs) != want {
			return fmt.Errorf("netlist: instance %s has %d inputs, cell %s wants %d",
				inst.Name, len(inst.Inputs), inst.Cell.Name, want)
		}
		for _, s := range inst.Inputs {
			if s < 0 || int(s) >= len(n.Signals) {
				return fmt.Errorf("netlist: instance %s input signal %d out of range", inst.Name, s)
			}
			if n.Signals[s].Driver >= i {
				ordered = false
			}
		}
		if inst.Output < 0 || int(inst.Output) >= len(n.Signals) {
			return fmt.Errorf("netlist: instance %s output out of range", inst.Name)
		}
		if n.Signals[inst.Output].Driver != i {
			return fmt.Errorf("netlist: signal %d driver mismatch for instance %s", inst.Output, inst.Name)
		}
	}
	for si := range n.Signals {
		s := &n.Signals[si]
		if s.Kind == SigGate {
			if s.Driver < 0 || s.Driver >= len(n.Instances) {
				return fmt.Errorf("netlist: gate signal %d has no driver", si)
			}
			if n.Instances[s.Driver].Output != s.ID {
				return fmt.Errorf("netlist: signal %d driver does not drive it", si)
			}
		} else if s.Driver != -1 {
			return fmt.Errorf("netlist: non-gate signal %d has a driver", si)
		}
	}
	if !ordered {
		if _, err := n.TopoOrder(); err != nil {
			return err
		}
	}
	return nil
}

// TopoOrder returns instance indices with every instance after the
// drivers of its inputs. Returns an error on a combinational cycle.
func (n *Netlist) TopoOrder() ([]int, error) {
	const (
		unvisited = 0
		active    = 1
		done      = 2
	)
	state := make([]byte, len(n.Instances))
	order := make([]int, 0, len(n.Instances))
	type frame struct {
		inst int
		next int
	}
	var stack []frame
	for root := range n.Instances {
		if state[root] != unvisited {
			continue
		}
		stack = append(stack[:0], frame{inst: root})
		state[root] = active
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			inst := &n.Instances[f.inst]
			if f.next < len(inst.Inputs) {
				sig := inst.Inputs[f.next]
				f.next++
				if n.Signals[sig].Kind != SigGate {
					continue
				}
				drv := n.Signals[sig].Driver
				switch state[drv] {
				case unvisited:
					state[drv] = active
					stack = append(stack, frame{inst: drv})
				case active:
					return nil, fmt.Errorf("netlist: combinational cycle through %s", n.Instances[drv].Name)
				}
				continue
			}
			state[f.inst] = done
			order = append(order, f.inst)
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// Eval evaluates the netlist outputs for a PI assignment (indexed by
// position in PIs).
func (n *Netlist) Eval(piValues []bool) ([]bool, error) {
	if len(piValues) != len(n.PIs) {
		return nil, fmt.Errorf("netlist: %d PI values for %d PIs", len(piValues), len(n.PIs))
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	val := make([]bool, len(n.Signals))
	for i, sig := range n.PIs {
		val[sig] = piValues[i]
	}
	for si := range n.Signals {
		if n.Signals[si].Kind == SigConst1 {
			val[si] = true
		}
	}
	assign := map[string]bool{}
	for _, ii := range order {
		inst := &n.Instances[ii]
		pat := inst.Cell.Patterns[inst.PatternIndex]
		vars := pat.Vars()
		for k := range assign {
			delete(assign, k)
		}
		for vi, v := range vars {
			assign[v] = val[inst.Inputs[vi]]
		}
		val[inst.Output] = pat.Eval(assign)
	}
	out := make([]bool, len(n.POs))
	for i, po := range n.POs {
		out[i] = val[po.Sig]
	}
	return out, nil
}

// PlacementNetlist converts the mapped netlist into the placer's
// hypergraph: one placeable cell per instance, one net per signal with
// at least two endpoints. piPads/poPads optionally pin I/O signals to
// pad locations (by PI position / PO index).
type PlacementNetlist struct {
	Cells *place.Netlist
	// SigNet maps each signal to its net index in Cells.Nets, or -1.
	SigNet []int
}

// ToPlacement builds the placement hypergraph. piPads maps PI ordinal
// to a pad point; poPads maps PO ordinal to a pad point. Either may be
// nil.
func (n *Netlist) ToPlacement(piPads, poPads []geom.Point) *PlacementNetlist {
	pn := &PlacementNetlist{
		Cells:  &place.Netlist{Widths: make([]float64, len(n.Instances))},
		SigNet: make([]int, len(n.Signals)),
	}
	for i := range n.Instances {
		pn.Cells.Widths[i] = n.Instances[i].Cell.Width()
	}
	type netAccum struct {
		cells []int
		pads  []geom.Point
	}
	acc := make([]netAccum, len(n.Signals))
	// Each signal's cell list is a window of one backing array: a
	// counting pass sizes the windows, a second pass fills them. An
	// instance pins each distinct input signal once.
	count := make([]int, len(n.Signals))
	total := 0
	for i := range n.Instances {
		inst := &n.Instances[i]
		count[inst.Output]++
		total++
		for k, s := range inst.Inputs {
			if !slices.Contains(inst.Inputs[:k], s) {
				count[s]++
				total++
			}
		}
	}
	cells := make([]int, total)
	start := 0
	for s, c := range count {
		if c > 0 {
			acc[s].cells = cells[start : start : start+c]
			start += c
		}
	}
	for i := range n.Instances {
		inst := &n.Instances[i]
		acc[inst.Output].cells = append(acc[inst.Output].cells, i)
		for k, s := range inst.Inputs {
			if !slices.Contains(inst.Inputs[:k], s) {
				acc[s].cells = append(acc[s].cells, i)
			}
		}
	}
	for pi, sig := range n.PIs {
		if piPads != nil && pi < len(piPads) {
			acc[sig].pads = append(acc[sig].pads, piPads[pi])
		}
	}
	for po, p := range n.POs {
		if poPads != nil && po < len(poPads) {
			acc[p.Sig].pads = append(acc[p.Sig].pads, poPads[po])
		}
	}
	nets := 0
	for si := range acc {
		if len(acc[si].cells)+len(acc[si].pads) >= 2 {
			nets++
		}
	}
	if nets > 0 {
		pn.Cells.Nets = make([]place.Net, 0, nets)
	}
	for si := range acc {
		pn.SigNet[si] = -1
		if len(acc[si].cells)+len(acc[si].pads) >= 2 {
			pn.SigNet[si] = len(pn.Cells.Nets)
			pn.Cells.Nets = append(pn.Cells.Nets, place.Net{
				Cells: acc[si].cells,
				Pads:  acc[si].pads,
			})
		}
	}
	return pn
}
