// Package subject implements the subject DAG: the technology-
// independent netlist of base functions (two-input NANDs and
// inverters) that technology mapping covers with library cells.
//
// The paper's flow decomposes the optimized Boolean network into this
// representation, places it on the chip layout image, and then maps
// it; the base-gate counts it reports (SPLA = 22,834, PDC = 23,058,
// TOO_LARGE = 27,977) are counts of these NAND2/INV vertices.
package subject

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// GateType is the type of a subject-DAG vertex.
type GateType uint8

const (
	// PI is a primary input.
	PI GateType = iota
	// Nand2 is a two-input NAND base gate.
	Nand2
	// Inv is an inverter base gate.
	Inv
	// Const0 is the constant-false source.
	Const0
	// Const1 is the constant-true source.
	Const1
)

// String implements fmt.Stringer.
func (t GateType) String() string {
	switch t {
	case PI:
		return "pi"
	case Nand2:
		return "nand2"
	case Inv:
		return "inv"
	case Const0:
		return "const0"
	case Const1:
		return "const1"
	default:
		return fmt.Sprintf("gate(%d)", int(t))
	}
}

// NumInputs returns the fanin count of the gate type.
func (t GateType) NumInputs() int {
	switch t {
	case Nand2:
		return 2
	case Inv:
		return 1
	default:
		return 0
	}
}

// Gate is one vertex of the subject DAG.
type Gate struct {
	ID   int
	Type GateType
	// In holds the fanin gate IDs: In[0] for INV, In[0:2] for NAND2.
	In [2]int
	// Name is set for primary inputs.
	Name string
}

// Output is a named primary output of the DAG.
type Output struct {
	Name string
	Gate int
}

// DAG is a structurally hashed network of base gates.
type DAG struct {
	gates   []Gate
	pis     []int
	outputs []Output
	hash    map[[3]int]int
	// fo is the reader index, nil while stale. Fanouts builds and
	// publishes it on first use, so any number of goroutines may read
	// a DAG that nobody warmed. The mutators clear it; SetGate patches
	// it, on a private copy if a clone shares it.
	fo atomic.Pointer[fanoutIndex]
	// replicaOf maps a replica gate to the original it was cloned
	// from (see replica.go). Non-empty means ascending IDs are no
	// longer a topological order.
	replicaOf map[int]int
}

// New returns an empty subject DAG.
func New() *DAG {
	return &DAG{hash: make(map[[3]int]int)}
}

// NumGates returns the total vertex count including PIs and constants.
func (d *DAG) NumGates() int { return len(d.gates) }

// Gate returns the gate with the given ID.
func (d *DAG) Gate(id int) *Gate { return &d.gates[id] }

// PIs returns the primary input gate IDs in creation order.
func (d *DAG) PIs() []int { return d.pis }

// Outputs returns the named outputs in creation order.
func (d *DAG) Outputs() []Output { return d.outputs }

// BaseGateCount returns the number of NAND2 and INV vertices — the
// "base gates" metric of the paper.
func (d *DAG) BaseGateCount() int {
	n := 0
	for i := range d.gates {
		if t := d.gates[i].Type; t == Nand2 || t == Inv {
			n++
		}
	}
	return n
}

// AddPI appends a primary input.
func (d *DAG) AddPI(name string) int {
	id := len(d.gates)
	d.gates = append(d.gates, Gate{ID: id, Type: PI, Name: name, In: [2]int{-1, -1}})
	d.pis = append(d.pis, id)
	d.fo.Store(nil)
	return id
}

// Const returns the constant gate for the given value, creating it on
// first use.
func (d *DAG) Const(v bool) int {
	t := Const0
	if v {
		t = Const1
	}
	key := [3]int{int(t), -1, -1}
	if id, ok := d.hash[key]; ok {
		return id
	}
	id := len(d.gates)
	d.gates = append(d.gates, Gate{ID: id, Type: t, In: [2]int{-1, -1}})
	d.hash[key] = id
	d.fo.Store(nil)
	return id
}

// AddInv returns the ID of INV(a), applying double-inverter
// cancellation and constant folding, reusing an existing gate when the
// same structure already exists.
func (d *DAG) AddInv(a int) int {
	switch g := d.gates[a]; g.Type {
	case Inv:
		return g.In[0] // INV(INV(x)) = x
	case Const0:
		return d.Const(true)
	case Const1:
		return d.Const(false)
	}
	key := [3]int{int(Inv), a, -1}
	if id, ok := d.hash[key]; ok {
		return id
	}
	id := len(d.gates)
	d.gates = append(d.gates, Gate{ID: id, Type: Inv, In: [2]int{a, -1}})
	d.hash[key] = id
	d.fo.Store(nil)
	return id
}

// AddNand2 returns the ID of NAND2(a, b) with constant folding, input
// canonicalization, and structural hashing.
func (d *DAG) AddNand2(a, b int) int {
	// Constant folding.
	ta, tb := d.gates[a].Type, d.gates[b].Type
	switch {
	case ta == Const0 || tb == Const0:
		return d.Const(true)
	case ta == Const1:
		return d.AddInv(b)
	case tb == Const1:
		return d.AddInv(a)
	case a == b:
		return d.AddInv(a)
	}
	if a > b {
		a, b = b, a
	}
	key := [3]int{int(Nand2), a, b}
	if id, ok := d.hash[key]; ok {
		return id
	}
	id := len(d.gates)
	d.gates = append(d.gates, Gate{ID: id, Type: Nand2, In: [2]int{a, b}})
	d.hash[key] = id
	d.fo.Store(nil)
	return id
}

// AddAnd2 builds AND2(a,b) = INV(NAND2(a,b)).
func (d *DAG) AddAnd2(a, b int) int { return d.AddInv(d.AddNand2(a, b)) }

// AddOr2 builds OR2(a,b) = NAND2(INV(a), INV(b)).
func (d *DAG) AddOr2(a, b int) int { return d.AddNand2(d.AddInv(a), d.AddInv(b)) }

// AddOutput marks gate as the named primary output.
func (d *DAG) AddOutput(name string, gate int) {
	d.outputs = append(d.outputs, Output{Name: name, Gate: gate})
}

// Fanins returns the fanin IDs of a gate (0, 1, or 2 entries).
func (d *DAG) Fanins(id int) []int {
	g := &d.gates[id]
	switch g.Type.NumInputs() {
	case 1:
		return g.In[:1]
	case 2:
		return g.In[:2]
	default:
		return nil
	}
}

// Fanouts returns the gates that read id's output, ascending. Output
// pins are not included; use OutputCount for net degree. The result is
// cached until the DAG is mutated and must not be modified. Concurrent
// calls are safe: the first callers build the index, one publishes it,
// and all of them read the published lists.
func (d *DAG) Fanouts(id int) []int {
	x := d.fo.Load()
	if x == nil {
		x = d.buildFanouts()
		if !d.fo.CompareAndSwap(nil, x) {
			x = d.fo.Load()
		}
	}
	lo, hi := x.off[id], x.off[id+1]
	return x.all[lo:hi:hi]
}

// fanoutIndex lists the gates reading gate g as all[off[g]:off[g+1]],
// ascending. shared is set once a Clone holds the same index, after
// which SetGate copies it before patching.
type fanoutIndex struct {
	off    []int32
	all    []int
	shared atomic.Bool
}

// buildFanouts lists each gate's readers in ascending order, as
// offsets into one array: a counting pass sizes the lists, a second
// pass fills them.
func (d *DAG) buildFanouts() *fanoutIndex {
	n := len(d.gates)
	off := make([]int32, n+1)
	for i := range d.gates {
		for _, fi := range d.Fanins(i) {
			off[fi+1]++
		}
	}
	for g := 0; g < n; g++ {
		off[g+1] += off[g]
	}
	all := make([]int, off[n])
	next := slices.Clone(off[:n])
	for i := range d.gates {
		for _, fi := range d.Fanins(i) {
			all[next[fi]] = i
			next[fi]++
		}
	}
	return &fanoutIndex{off: off, all: all}
}

// TopoOrder returns all gate IDs in topological order (fanins first).
// The DAG is acyclic by construction, so no error case exists.
func (d *DAG) TopoOrder() []int {
	if d.Replicated() {
		// Replica fanin rewires point sinks at larger IDs; fall back
		// to a genuine DFS topological order.
		return d.topoDFS()
	}
	// Gates are created fanins-first, so IDs are already topological.
	order := make([]int, len(d.gates))
	for i := range order {
		order[i] = i
	}
	return order
}

// Eval evaluates every gate under a PI assignment indexed by position
// in PIs().
func (d *DAG) Eval(piValues []bool) ([]bool, error) {
	if len(piValues) != len(d.pis) {
		return nil, fmt.Errorf("subject: %d PI values for %d PIs", len(piValues), len(d.pis))
	}
	val := make([]bool, len(d.gates))
	piIndex := make(map[int]int, len(d.pis))
	for i, id := range d.pis {
		piIndex[id] = i
	}
	for _, id := range d.TopoOrder() {
		g := &d.gates[id]
		switch g.Type {
		case PI:
			val[id] = piValues[piIndex[id]]
		case Const0:
			val[id] = false
		case Const1:
			val[id] = true
		case Inv:
			val[id] = !val[g.In[0]]
		case Nand2:
			val[id] = !(val[g.In[0]] && val[g.In[1]])
		}
	}
	return val, nil
}

// EvalOutputs evaluates the DAG and returns PO values in output order.
func (d *DAG) EvalOutputs(piValues []bool) ([]bool, error) {
	val, err := d.Eval(piValues)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(d.outputs))
	for i, o := range d.outputs {
		out[i] = val[o.Gate]
	}
	return out, nil
}

// LiveGates returns the IDs of gates reachable from any output,
// sorted ascending. Structural hashing can leave orphans when logic
// folds away; mapping and placement operate on the live set.
func (d *DAG) LiveGates() []int {
	live := make([]bool, len(d.gates))
	n := 0
	var stack []int
	for _, o := range d.outputs {
		stack = append(stack, o.Gate)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[id] {
			continue
		}
		live[id] = true
		n++
		stack = append(stack, d.Fanins(id)...)
	}
	out := make([]int, 0, n)
	for id, l := range live {
		if l {
			out = append(out, id)
		}
	}
	return out
}
