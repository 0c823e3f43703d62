package verify

import (
	"context"
	"strings"
	"testing"
)

// TestCircuitFolding: the builder's structural simplifications — every
// identity must hold both structurally (node reuse) and semantically.
func TestCircuitFolding(t *testing.T) {
	t.Parallel()
	c := NewCircuit("fold")
	x := c.Input("x")
	y := c.Input("y")
	t0 := c.Const(false)
	t1 := c.Const(true)

	if c.Not(c.Not(x)) != x {
		t.Error("double negation not folded")
	}
	if c.Not(t0) != t1 || c.Not(t1) != t0 {
		t.Error("constant NOT not folded")
	}
	if c.And(x, t0) != t0 || c.And(t0, x) != t0 {
		t.Error("AND with 0 not folded")
	}
	if c.And(x, t1) != x || c.And(t1, x) != x {
		t.Error("AND with 1 not folded")
	}
	if c.And(x, x) != x {
		t.Error("AND idempotence not folded")
	}
	if c.Or(x, t1) != t1 || c.Or(t1, x) != t1 {
		t.Error("OR with 1 not folded")
	}
	if c.Or(x, t0) != x || c.Or(t0, x) != x {
		t.Error("OR with 0 not folded")
	}
	if c.Or(x, x) != x {
		t.Error("OR idempotence not folded")
	}
	if c.Nand(x, t0) != t1 || c.Nand(t0, x) != t1 {
		t.Error("NAND with 0 not folded")
	}
	if c.Nand(x, t1) != c.Not(x) || c.Nand(t1, x) != c.Not(x) {
		t.Error("NAND with 1 not folded to NOT")
	}
	if c.Nand(x, x) != c.Not(x) {
		t.Error("NAND idempotence not folded to NOT")
	}
	// Commutativity through operand canonicalization.
	if c.And(x, y) != c.And(y, x) || c.Or(x, y) != c.Or(y, x) || c.Nand(x, y) != c.Nand(y, x) {
		t.Error("binary ops not canonicalized for commutativity")
	}
	// Structural hashing: rebuilding the same expression adds nothing.
	before := len(c.nodes)
	c.And(x, y)
	c.Or(x, y)
	c.Nand(x, y)
	if len(c.nodes) != before {
		t.Errorf("structural hash missed: %d nodes, had %d", len(c.nodes), before)
	}
}

// TestCircuitInterfaceValidation: the malformed interfaces Equivalent
// must reject.
func TestCircuitInterfaceValidation(t *testing.T) {
	t.Parallel()
	noOut := NewCircuit("noOut")
	noOut.Input("x")
	dupOut := NewCircuit("dupOut")
	x := dupOut.Input("x")
	dupOut.AddOutput("o", x)
	dupOut.AddOutput("o", dupOut.Not(x))
	dupIn := NewCircuit("dupIn")
	a := dupIn.Input("x")
	b := dupIn.Input("x")
	dupIn.AddOutput("o", dupIn.And(a, b))
	good := NewCircuit("good")
	g := good.Input("x")
	good.AddOutput("o", g)

	for _, tc := range []struct {
		name string
		c    *Circuit
		want string
	}{
		{"no outputs", noOut, "no outputs"},
		{"duplicate output", dupOut, "duplicate output"},
		{"duplicate input", dupIn, "duplicate input"},
	} {
		_, err := Equivalent(context.Background(), tc.c, good, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		// Malformed circuits are rejected on either side.
		_, err = Equivalent(context.Background(), good, tc.c, Options{})
		if err == nil {
			t.Errorf("%s as second operand: accepted", tc.name)
		}
	}
}

// TestCircuitEvalArity: evaluating with the wrong input count is an
// error, not a silent truncation.
func TestCircuitEvalArity(t *testing.T) {
	t.Parallel()
	c := NewCircuit("arity")
	x := c.Input("x")
	c.AddOutput("o", x)
	if _, err := NewWordEval(c).Eval(nil); err == nil {
		t.Error("word eval accepted wrong arity")
	}
	if _, err := c.EvalVector([]bool{true, false}); err == nil {
		t.Error("vector eval accepted wrong arity")
	}
}

// TestReportAndCounterexampleStrings: the human-readable forms carry
// the verdict, the method, and the vector.
func TestReportAndCounterexampleStrings(t *testing.T) {
	t.Parallel()
	a := NewCircuit("lhs")
	x := a.Input("x")
	a.AddOutput("o", x)
	b := NewCircuit("rhs")
	y := b.Input("x")
	b.AddOutput("o", b.Not(y))

	rep, err := Equivalent(context.Background(), a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "NOT equivalent") || !strings.Contains(s, "lhs") || !strings.Contains(s, "rhs") {
		t.Errorf("inequivalent report %q lacks verdict or names", s)
	}
	if rep.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	cs := rep.Counterexample.String()
	if !strings.Contains(cs, "x=") || !strings.Contains(cs, "o:") {
		t.Errorf("counterexample %q lacks assignment or output", cs)
	}

	rep, err = Equivalent(context.Background(), a, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); !strings.Contains(s, "equivalent") || strings.Contains(s, "NOT") {
		t.Errorf("equivalent report reads wrong: %q", s)
	}

	rep, err = Equivalent(context.Background(), a, a, Options{SimOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); !strings.Contains(s, "unproven") {
		t.Errorf("unproven report not marked: %q", s)
	}
}
