package bnet

import (
	"strings"
	"testing"

	"casyn/internal/logic"
)

// buildXorNet builds f = a·b' + a'·b.
func buildXorNet() (*Network, NodeID, NodeID) {
	n := New()
	a := n.AddPI("a")
	b := n.AddPI("b")
	f := n.AddInternal("f", NewSop(
		mkCube(Lit{a, false}, Lit{b, true}),
		mkCube(Lit{a, true}, Lit{b, false}),
	))
	n.AddPO("out", f, false)
	return n, a, b
}

func TestNetworkBasics(t *testing.T) {
	t.Parallel()
	n, a, b := buildXorNet()
	if n.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", n.NumNodes())
	}
	if len(n.pis) != 2 || len(n.pos) != 1 {
		t.Fatal("PI/PO counts wrong")
	}
	f, ok := n.Lookup("f")
	if !ok {
		t.Fatal("Lookup failed")
	}
	fi := n.Fanins(f)
	if len(fi) != 2 || fi[0] != a || fi[1] != b {
		t.Errorf("Fanins = %v", fi)
	}
	fo := n.Fanouts(a)
	if len(fo) != 1 || fo[0] != f {
		t.Errorf("Fanouts = %v", fo)
	}
}

func TestNetworkEval(t *testing.T) {
	t.Parallel()
	n, _, _ := buildXorNet()
	cases := []struct {
		in   []bool
		want bool
	}{
		{[]bool{false, false}, false},
		{[]bool{true, false}, true},
		{[]bool{false, true}, true},
		{[]bool{true, true}, false},
	}
	for _, c := range cases {
		out, err := n.EvalOutputs(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.in, out[0], c.want)
		}
	}
	if _, err := n.EvalOutputs([]bool{true}); err == nil {
		t.Error("wrong PI count must error")
	}
}

func TestNegatedPO(t *testing.T) {
	t.Parallel()
	n := New()
	a := n.AddPI("a")
	buf := n.AddInternal("buf", NewSop(mkCube(Lit{a, false})))
	n.AddPO("nout", buf, true)
	out, err := n.EvalOutputs([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] {
		t.Error("negated PO of true input must be false")
	}
}

func TestTopoOrder(t *testing.T) {
	t.Parallel()
	n, _, _ := buildXorNet()
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, node := range []string{"f"} {
		id, _ := n.Lookup(node)
		for _, fi := range n.Fanins(id) {
			if pos[fi] > pos[id] {
				t.Errorf("fanin %d after node %d", fi, id)
			}
		}
	}
}

func TestTopoOrderCycle(t *testing.T) {
	t.Parallel()
	n := New()
	a := n.AddPI("a")
	x := n.AddInternal("x", nil)
	y := n.AddInternal("y", NewSop(mkCube(Lit{x, false}, Lit{a, false})))
	n.SetFn(x, NewSop(mkCube(Lit{y, false})))
	if _, err := n.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("duplicate name must panic")
		}
	}()
	n := New()
	n.AddPI("a")
	n.AddPI("a")
}

func TestSweep(t *testing.T) {
	t.Parallel()
	n := New()
	a := n.AddPI("a")
	b := n.AddPI("b")
	dead := n.AddInternal("dead", NewSop(mkCube(Lit{a, false})))
	buf := n.AddInternal("buf", NewSop(mkCube(Lit{b, false})))
	f := n.AddInternal("f", NewSop(mkCube(Lit{buf, false}, Lit{a, false})))
	n.AddPO("out", f, false)
	_ = dead
	removed := n.Sweep()
	if removed < 2 {
		t.Errorf("Sweep removed %d, want >= 2 (dead node + buffer)", removed)
	}
	// The buffer must have been bypassed.
	fi := n.Fanins(f)
	for _, id := range fi {
		if id == buf {
			t.Error("buffer not collapsed")
		}
	}
	out, err := n.EvalOutputs([]bool{true, true})
	if err != nil || !out[0] {
		t.Errorf("function changed by sweep: %v %v", out, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	n, a, _ := buildXorNet()
	c := n.Clone()
	f, _ := n.Lookup("f")
	n.SetFn(f, NewSop(mkCube(Lit{a, false})))
	outN, _ := n.EvalOutputs([]bool{true, true})
	outC, _ := c.EvalOutputs([]bool{true, true})
	if outN[0] == outC[0] {
		t.Error("clone shares function storage with original")
	}
}

func TestFromPLA(t *testing.T) {
	t.Parallel()
	src := ".i 3\n.o 2\n.ilb a b c\n.ob f g\n1-0 10\n-11 11\n0-- 01\n.e\n"
	p, err := logic.ReadPLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	n, err := FromPLA(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.pis) != 3 || len(n.pos) != 2 {
		t.Fatalf("interface %d/%d", len(n.pis), len(n.pos))
	}
	assign := make([]bool, 3)
	for m := 0; m < 8; m++ {
		for i := range assign {
			assign[i] = m>>i&1 == 1
		}
		want := p.Eval(assign)
		got, err := n.EvalOutputs(assign)
		if err != nil {
			t.Fatal(err)
		}
		for o := range want {
			if want[o] != got[o] {
				t.Errorf("minterm %d output %d: PLA=%v net=%v", m, o, want[o], got[o])
			}
		}
	}
}

func TestKindString(t *testing.T) {
	t.Parallel()
	if KindPI.String() != "pi" || KindInternal.String() != "internal" || KindPO.String() != "po" {
		t.Error("Kind.String broken")
	}
}
