package subject

import (
	"math/rand"
	"strings"
	"testing"

	"casyn/internal/bnet"
	"casyn/internal/logic"
)

func TestStructuralHashing(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	n1 := d.AddNand2(a, b)
	n2 := d.AddNand2(b, a) // commuted
	if n1 != n2 {
		t.Error("NAND2 hashing must be commutative")
	}
	i1 := d.AddInv(n1)
	i2 := d.AddInv(n1)
	if i1 != i2 {
		t.Error("INV hashing must deduplicate")
	}
}

func TestInvCancellation(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	if d.AddInv(d.AddInv(a)) != a {
		t.Error("INV(INV(a)) must be a")
	}
}

func TestConstantFolding(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	c0 := d.Const(false)
	c1 := d.Const(true)
	if d.Const(false) != c0 || d.Const(true) != c1 {
		t.Error("constants must be unique")
	}
	if d.AddNand2(a, c0) != c1 {
		t.Error("NAND(a,0) must be 1")
	}
	if d.AddNand2(a, c1) != d.AddInv(a) {
		t.Error("NAND(a,1) must be INV(a)")
	}
	if d.AddInv(c0) != c1 || d.AddInv(c1) != c0 {
		t.Error("INV of constants must fold")
	}
	if d.AddNand2(a, a) != d.AddInv(a) {
		t.Error("NAND(a,a) must be INV(a)")
	}
}

func TestAndOrHelpers(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	and := d.AddAnd2(a, b)
	or := d.AddOr2(a, b)
	d.AddOutput("and", and)
	d.AddOutput("or", or)
	cases := []struct {
		in      []bool
		wantAnd bool
		wantOr  bool
	}{
		{[]bool{false, false}, false, false},
		{[]bool{true, false}, false, true},
		{[]bool{false, true}, false, true},
		{[]bool{true, true}, true, true},
	}
	for _, c := range cases {
		out, err := d.EvalOutputs(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != c.wantAnd || out[1] != c.wantOr {
			t.Errorf("in=%v: and=%v or=%v", c.in, out[0], out[1])
		}
	}
}

func TestFanoutsAndMultiFanout(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	n := d.AddNand2(a, b)
	i := d.AddInv(n)
	n2 := d.AddNand2(n, i)
	d.AddOutput("o", n2)
	fo := d.Fanouts(n)
	if len(fo) != 2 {
		t.Errorf("Fanouts(n) = %v, want 2 entries", fo)
	}
}

func TestTopoOrderIsTopological(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	x := d.AddNand2(a, b)
	y := d.AddInv(x)
	z := d.AddNand2(y, a)
	d.AddOutput("z", z)
	pos := map[int]int{}
	for i, id := range d.TopoOrder() {
		pos[id] = i
	}
	for id := 0; id < d.NumGates(); id++ {
		for _, fi := range d.Fanins(id) {
			if pos[fi] > pos[id] {
				t.Fatalf("gate %d before its fanin %d", id, fi)
			}
		}
	}
}

func TestLiveGates(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	used := d.AddNand2(a, b)
	_ = d.AddInv(used) // orphan
	d.AddOutput("o", used)
	live := d.LiveGates()
	want := map[int]bool{a: true, b: true, used: true}
	if len(live) != len(want) {
		t.Fatalf("LiveGates = %v", live)
	}
	for _, id := range live {
		if !want[id] {
			t.Errorf("unexpected live gate %d", id)
		}
	}
}

func TestStats(t *testing.T) {
	t.Parallel()
	d := New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	n := d.AddNand2(a, b)
	i := d.AddInv(n)
	d.Const(false)
	d.AddOutput("o", i)
	if d.BaseGateCount() != 2 {
		t.Errorf("BaseGateCount = %d, want 2", d.BaseGateCount())
	}
}

func TestGateTypeString(t *testing.T) {
	t.Parallel()
	for gt, want := range map[GateType]string{PI: "pi", Nand2: "nand2", Inv: "inv", Const0: "const0", Const1: "const1"} {
		if gt.String() != want {
			t.Errorf("%d.String() = %q, want %q", gt, gt.String(), want)
		}
	}
	if Nand2.NumInputs() != 2 || Inv.NumInputs() != 1 || PI.NumInputs() != 0 {
		t.Error("NumInputs wrong")
	}
}

// decomposeSample builds a network from a PLA string and decomposes it.
func decomposeSample(t *testing.T, src string) (*bnet.Network, *DAG) {
	t.Helper()
	p, err := logic.ReadPLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	n, err := bnet.FromPLA(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	return n, d
}

func TestDecomposeEquivalence(t *testing.T) {
	t.Parallel()
	src := ".i 4\n.o 2\n1-0- 10\n-11- 11\n0--1 01\n1111 10\n.e\n"
	n, d := decomposeSample(t, src)
	assign := make([]bool, 4)
	for m := 0; m < 16; m++ {
		for i := range assign {
			assign[i] = m>>i&1 == 1
		}
		want, err := n.EvalOutputs(assign)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.EvalOutputs(assign)
		if err != nil {
			t.Fatal(err)
		}
		for o := range want {
			if want[o] != got[o] {
				t.Errorf("minterm %d output %d: net=%v dag=%v", m, o, want[o], got[o])
			}
		}
	}
}

func TestDecomposeConstants(t *testing.T) {
	t.Parallel()
	// An output with no terms is constant 0.
	n := bnet.New()
	n.AddPI("a")
	f := n.AddInternal("f", nil)
	n.AddPO("zero", f, false)
	n.AddPO("one", f, true)
	d, err := Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.EvalOutputs([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false || out[1] != true {
		t.Errorf("constant outputs = %v", out)
	}
}

func TestDecomposeRandomEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	extracted := 0
	for trial := 0; trial < 10; trial++ {
		ni := rng.Intn(6) + 3
		no := rng.Intn(3) + 1
		p := logic.NewPLA(ni, no)
		for k := rng.Intn(15) + 3; k > 0; k-- {
			cb := logic.NewCube(ni)
			for i := 0; i < ni; i++ {
				switch rng.Intn(3) {
				case 0:
					cb.SetPos(i)
				case 1:
					cb.SetNeg(i)
				}
			}
			row := make([]bool, no)
			row[rng.Intn(no)] = true
			if err := p.AddTerm(cb, row); err != nil {
				t.Fatal(err)
			}
		}
		n, err := bnet.FromPLA(p)
		if err != nil {
			t.Fatal(err)
		}
		// Optimize, then decompose; function must survive both.
		extracted += bnet.FastExtract(n, bnet.FastExtractOptions{MinPairCount: 2}).NewNodes
		d, err := Decompose(n)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]bool, ni)
		for v := 0; v < 200; v++ {
			for i := range assign {
				assign[i] = rng.Intn(2) == 0
			}
			want := p.Eval(assign)
			got, err := d.EvalOutputs(assign)
			if err != nil {
				t.Fatal(err)
			}
			for o := range want {
				if want[o] != got[o] {
					t.Fatalf("trial %d output %d differs", trial, o)
				}
			}
		}
	}
	if extracted == 0 {
		t.Error("extraction built no internal nodes in any trial")
	}
}

func TestDecomposeBalancedDepth(t *testing.T) {
	t.Parallel()
	// A 16-literal single-cube function must decompose with depth
	// O(log n), not a 15-deep chain.
	n := bnet.New()
	var lits []bnet.Lit
	for i := 0; i < 16; i++ {
		id := n.AddPI(string(rune('a' + i)))
		lits = append(lits, bnet.Lit{Node: id})
	}
	cube, ok := bnet.NewCube(lits...)
	if !ok {
		t.Fatal("cube build failed")
	}
	f := n.AddInternal("wide_and", bnet.NewSop(cube))
	n.AddPO("o16", f, false)
	d, err := Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	depth := make([]int, d.NumGates())
	maxDepth := 0
	for _, id := range d.TopoOrder() {
		for _, fi := range d.Fanins(id) {
			if depth[fi]+1 > depth[id] {
				depth[id] = depth[fi] + 1
			}
		}
		if depth[id] > maxDepth {
			maxDepth = depth[id]
		}
	}
	// Balanced AND tree of 16 leaves: 4 AND2 levels = 8 NAND/INV
	// levels; allow slack but far below a 15-gate chain (30 levels).
	if maxDepth > 12 {
		t.Errorf("decomposition depth %d, want balanced (<=12)", maxDepth)
	}
}
