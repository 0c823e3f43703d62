// Package verify implements combinational equivalence checking between
// the repository's circuit representations: the Boolean network
// (bnet.Network), the subject DAG of base gates (subject.DAG), the
// technology-mapped netlist (netlist.Netlist), and two-level PLA
// descriptions (logic.PLA).
//
// Every representation is first compiled into a common word-level IR
// (Circuit) of AND/OR/NOT/NAND operations with structural hashing.
// Equivalent then runs two engines over the shared IR:
//
//  1. a 64-way bit-parallel simulation pass — directed patterns
//     (all-zeros, all-ones, one-hot, one-cold, single-input
//     sensitization around random bases) plus seeded random words —
//     that refutes inequivalent pairs quickly with a concrete
//     counterexample vector;
//  2. an exact backend: a hash-consed ROBDD engine with an operation
//     cache and a hard node budget, falling back to exhaustive
//     bit-parallel enumeration when the input count permits. The exact
//     backend turns "no mismatch found" into "proven equivalent".
//
// The engines align inputs and outputs across representations by name,
// so the caller never has to reason about pin ordering differences
// between the pipeline stages.
package verify

import (
	"fmt"
)

// op is one IR operation.
type op uint8

const (
	opInput op = iota
	opConst0
	opConst1
	opNot
	opAnd
	opOr
	opNand
)

// node is one IR vertex. A holds the input ordinal for opInput and the
// single operand for opNot; A and B hold the operands of the binary
// ops.
type node struct {
	Op   op
	A, B int32
}

// output is a named root of the circuit.
type output struct {
	Name string
	Node int32
}

// Circuit is the compiled word-level IR of one circuit representation.
// Nodes are stored in topological order (operands always precede
// users), so a single forward pass evaluates the whole circuit.
type Circuit struct {
	// Name labels the circuit in reports ("bnet", "subject", ...).
	Name    string
	nodes   []node
	inputs  []string
	outputs []output
	// hash structurally dedupes nodes during construction.
	hash map[node]int32
}

// NewCircuit returns an empty circuit builder.
func NewCircuit(name string) *Circuit {
	return &Circuit{Name: name, hash: make(map[node]int32)}
}

// NumInputs returns the primary-input count.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// NumOutputs returns the primary-output count.
func (c *Circuit) NumOutputs() int { return len(c.outputs) }

// InputNames returns the input names in input-ordinal order.
func (c *Circuit) InputNames() []string { return c.inputs }

// OutputNames returns the output names in output order.
func (c *Circuit) OutputNames() []string {
	out := make([]string, len(c.outputs))
	for i, o := range c.outputs {
		out[i] = o.Name
	}
	return out
}

func (c *Circuit) intern(n node) int32 {
	if id, ok := c.hash[n]; ok {
		return id
	}
	id := int32(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.hash[n] = id
	return id
}

// Input appends a primary input and returns its node.
func (c *Circuit) Input(name string) int32 {
	// Inputs are never deduped: each call is a distinct pin.
	id := int32(len(c.nodes))
	c.nodes = append(c.nodes, node{Op: opInput, A: int32(len(c.inputs))})
	c.inputs = append(c.inputs, name)
	return id
}

// Const returns the constant node for v.
func (c *Circuit) Const(v bool) int32 {
	if v {
		return c.intern(node{Op: opConst1})
	}
	return c.intern(node{Op: opConst0})
}

// Not returns NOT(a) with double-negation and constant folding.
func (c *Circuit) Not(a int32) int32 {
	switch n := c.nodes[a]; n.Op {
	case opNot:
		return n.A
	case opConst0:
		return c.Const(true)
	case opConst1:
		return c.Const(false)
	}
	return c.intern(node{Op: opNot, A: a})
}

func (c *Circuit) binary(o op, a, b int32) int32 {
	if a > b {
		a, b = b, a
	}
	return c.intern(node{Op: o, A: a, B: b})
}

// And returns AND(a, b) with constant folding and idempotence.
func (c *Circuit) And(a, b int32) int32 {
	ta, tb := c.nodes[a].Op, c.nodes[b].Op
	switch {
	case ta == opConst0 || tb == opConst0:
		return c.Const(false)
	case ta == opConst1:
		return b
	case tb == opConst1:
		return a
	case a == b:
		return a
	}
	return c.binary(opAnd, a, b)
}

// Or returns OR(a, b) with constant folding and idempotence.
func (c *Circuit) Or(a, b int32) int32 {
	ta, tb := c.nodes[a].Op, c.nodes[b].Op
	switch {
	case ta == opConst1 || tb == opConst1:
		return c.Const(true)
	case ta == opConst0:
		return b
	case tb == opConst0:
		return a
	case a == b:
		return a
	}
	return c.binary(opOr, a, b)
}

// Nand returns NAND(a, b) with constant folding.
func (c *Circuit) Nand(a, b int32) int32 {
	ta, tb := c.nodes[a].Op, c.nodes[b].Op
	switch {
	case ta == opConst0 || tb == opConst0:
		return c.Const(true)
	case ta == opConst1:
		return c.Not(b)
	case tb == opConst1:
		return c.Not(a)
	case a == b:
		return c.Not(a)
	}
	return c.binary(opNand, a, b)
}

// AddOutput names a node as a primary output.
func (c *Circuit) AddOutput(name string, n int32) {
	c.outputs = append(c.outputs, output{Name: name, Node: n})
}

// checkInterface validates that the circuit is well formed for
// verification: at least one output and unique output names (outputs
// are aligned across representations by name).
func (c *Circuit) checkInterface() error {
	if len(c.outputs) == 0 {
		return fmt.Errorf("verify: circuit %s has no outputs", c.Name)
	}
	seen := make(map[string]bool, len(c.outputs))
	for _, o := range c.outputs {
		if seen[o.Name] {
			return fmt.Errorf("verify: circuit %s has duplicate output %q", c.Name, o.Name)
		}
		seen[o.Name] = true
	}
	seenIn := make(map[string]bool, len(c.inputs))
	for _, in := range c.inputs {
		if seenIn[in] {
			return fmt.Errorf("verify: circuit %s has duplicate input %q", c.Name, in)
		}
		seenIn[in] = true
	}
	return nil
}

// WordEval is a reusable 64-way bit-parallel evaluator over one
// circuit. It holds the node-value scratch buffer so repeated
// evaluations do not allocate.
type WordEval struct {
	c    *Circuit
	vals []uint64
	out  []uint64
}

// NewWordEval returns an evaluator for c.
func NewWordEval(c *Circuit) *WordEval {
	return &WordEval{
		c:    c,
		vals: make([]uint64, len(c.nodes)),
		out:  make([]uint64, len(c.outputs)),
	}
}

// Eval evaluates 64 input vectors at once: bit b of in[i] is the value
// of input ordinal i in vector b. The returned slice (bit b of out[o]
// is output o in vector b) is reused by the next Eval call.
func (e *WordEval) Eval(in []uint64) ([]uint64, error) {
	c := e.c
	if len(in) != len(c.inputs) {
		return nil, fmt.Errorf("verify: %d input words for %d inputs of %s", len(in), len(c.inputs), c.Name)
	}
	vals := e.vals
	for i, n := range c.nodes {
		switch n.Op {
		case opInput:
			vals[i] = in[n.A]
		case opConst0:
			vals[i] = 0
		case opConst1:
			vals[i] = ^uint64(0)
		case opNot:
			vals[i] = ^vals[n.A]
		case opAnd:
			vals[i] = vals[n.A] & vals[n.B]
		case opOr:
			vals[i] = vals[n.A] | vals[n.B]
		case opNand:
			vals[i] = ^(vals[n.A] & vals[n.B])
		}
	}
	for o, root := range c.outputs {
		e.out[o] = vals[root.Node]
	}
	return e.out, nil
}

// EvalVector evaluates a single Boolean input vector (indexed by input
// ordinal) and returns the output values in output order.
func (c *Circuit) EvalVector(in []bool) ([]bool, error) {
	if len(in) != len(c.inputs) {
		return nil, fmt.Errorf("verify: %d input values for %d inputs of %s", len(in), len(c.inputs), c.Name)
	}
	words := make([]uint64, len(in))
	for i, v := range in {
		if v {
			words[i] = 1
		}
	}
	out, err := NewWordEval(c).Eval(words)
	if err != nil {
		return nil, err
	}
	bits := make([]bool, len(out))
	for i, w := range out {
		bits[i] = w&1 == 1
	}
	return bits, nil
}
