package netlist

import (
	"slices"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/library"
)

// buildSmall constructs: out = NAND2(AND2(a,b), c).
func buildSmall() (*Netlist, *library.Library) {
	lib := library.Default()
	n := New()
	a := n.AddSignal("a", SigPI)
	b := n.AddSignal("b", SigPI)
	c := n.AddSignal("c", SigPI)
	_, and := n.AddInstance("u0", lib.Cell("AND2"), 0, []SigID{a, b}, geom.Pt(1, 1))
	_, out := n.AddInstance("u1", lib.Cell("NAND2"), 0, []SigID{and, c}, geom.Pt(2, 1))
	n.AddPO("out", out)
	return n, lib
}

func TestNetlistBasics(t *testing.T) {
	t.Parallel()
	n, lib := buildSmall()
	if n.NumCells() != 2 {
		t.Fatalf("NumCells = %d", n.NumCells())
	}
	want := lib.Cell("AND2").Area + lib.Cell("NAND2").Area
	if got := n.CellArea(); got != want {
		t.Errorf("CellArea = %g, want %g", got, want)
	}
	counts := n.CellCounts()
	if counts["AND2"] != 1 || counts["NAND2"] != 1 {
		t.Errorf("CellCounts = %v", counts)
	}
	if err := n.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestNetlistEval(t *testing.T) {
	t.Parallel()
	n, _ := buildSmall()
	cases := []struct {
		in   []bool
		want bool
	}{
		{[]bool{true, true, true}, false}, // NAND(1,1)
		{[]bool{true, true, false}, true}, // NAND(1,0)
		{[]bool{false, true, true}, true}, // NAND(0,1)
		{[]bool{false, false, false}, true},
	}
	for _, cs := range cases {
		out, err := n.Eval(cs.in)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != cs.want {
			t.Errorf("Eval(%v) = %v, want %v", cs.in, out[0], cs.want)
		}
	}
	if _, err := n.Eval([]bool{true}); err == nil {
		t.Error("wrong PI count accepted")
	}
}

func TestNetlistConstSignals(t *testing.T) {
	t.Parallel()
	lib := library.Default()
	n := New()
	c1 := n.AddSignal("const1", SigConst1)
	c0 := n.AddSignal("const0", SigConst0)
	_, out := n.AddInstance("u0", lib.Cell("NAND2"), 0, []SigID{c1, c0}, geom.Point{})
	n.AddPO("o", out)
	v, err := n.Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v[0] {
		t.Error("NAND(1,0) must be 1")
	}
}

func TestTopoOrder(t *testing.T) {
	t.Parallel()
	n, _ := buildSmall()
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, ii := range order {
		pos[ii] = i
	}
	// u1 consumes u0's output.
	if pos[1] < pos[0] {
		t.Error("topological order violated")
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	t.Parallel()
	n, _ := buildSmall()
	// Arity violation.
	n.Instances[0].Inputs = n.Instances[0].Inputs[:1]
	if err := n.Check(); err == nil {
		t.Error("arity violation not caught")
	}
	n, _ = buildSmall()
	// Driver mismatch.
	n.Signals[n.Instances[0].Output].Driver = 1
	if err := n.Check(); err == nil {
		t.Error("driver mismatch not caught")
	}
	n, _ = buildSmall()
	// Combinational cycle.
	n.Instances[0].Inputs[0] = n.Instances[1].Output
	if err := n.Check(); err == nil {
		t.Error("cycle not caught")
	}
	n, _ = buildSmall()
	// Self loop.
	n.Instances[1].Inputs[1] = n.Instances[1].Output
	if err := n.Check(); err == nil {
		t.Error("self loop not caught")
	}
}

// TestCheckAcceptsOutOfOrder: an acyclic netlist whose instance reads a
// later instance's signal passes Check.
func TestCheckAcceptsOutOfOrder(t *testing.T) {
	t.Parallel()
	n, _ := buildSmall()
	// u0 = AND2(a, b) now reads u1 = NAND2(a, c) (u1's first input was
	// u0's output).
	n.Instances[1].Inputs[0] = n.PIs[0]
	n.Instances[0].Inputs[1] = n.Instances[1].Output
	if err := n.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestToPlacement(t *testing.T) {
	t.Parallel()
	n, _ := buildSmall()
	piPads := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 5), geom.Pt(0, 10)}
	poPads := []geom.Point{geom.Pt(50, 5)}
	pn := n.ToPlacement(piPads, poPads)
	if len(pn.Cells.Widths) != 2 {
		t.Fatalf("placeable cells = %d", len(pn.Cells.Widths))
	}
	if err := pn.Cells.Validate(); err != nil {
		t.Fatal(err)
	}
	// Nets: a, b, c (PI pad + sink), and (u0->u1), out (u1 + PO pad).
	if len(pn.Cells.Nets) != 5 {
		t.Errorf("nets = %d, want 5", len(pn.Cells.Nets))
	}
	// The internal net connects both instances.
	andSig := n.Instances[1].Inputs[0]
	ni := pn.SigNet[andSig]
	if ni < 0 || len(pn.Cells.Nets[ni].Cells) != 2 {
		t.Errorf("internal net malformed: %v", pn.Cells.Nets[ni])
	}
	// Signals with a single endpoint have no net.
	single := n.AddSignal("dangling", SigPI)
	pn = n.ToPlacement(nil, nil)
	if pn.SigNet[single] != -1 {
		t.Error("dangling signal must have no net")
	}
}

func TestToPlacementDedupesPins(t *testing.T) {
	t.Parallel()
	// An instance using the same signal on two pins contributes one
	// placement pin.
	lib := library.Default()
	n := New()
	a := n.AddSignal("a", SigPI)
	_, out := n.AddInstance("u0", lib.Cell("NAND2"), 0, []SigID{a, a}, geom.Point{})
	n.AddPO("o", out)
	pn := n.ToPlacement([]geom.Point{geom.Pt(0, 0)}, []geom.Point{geom.Pt(9, 9)})
	ni := pn.SigNet[a]
	if ni < 0 {
		t.Fatal("net for a missing")
	}
	if got := len(pn.Cells.Nets[ni].Cells); got != 1 {
		t.Errorf("net for a has %d cell pins, want 1", got)
	}
}

// TestInstanceInputsWindows: instance inputs are copies held in
// netlist-owned windows that never alias. Rewriting the caller's slice,
// appending to one instance's inputs or overflowing the reserved array
// leaves every other instance's inputs as they were.
func TestInstanceInputsWindows(t *testing.T) {
	t.Parallel()
	lib := library.Default()
	n := New()
	n.Reserve(0, 0, 3)
	a := n.AddSignal("a", SigPI)
	b := n.AddSignal("b", SigPI)
	in := []SigID{a, b}
	_, u0 := n.AddInstance("u0", lib.Cell("NAND2"), 0, in, geom.Point{})
	in[0] = b
	_, u1 := n.AddInstance("u1", lib.Cell("NAND2"), 0, in, geom.Point{}) // overflows the reserve
	_, u2 := n.AddInstance("u2", lib.Cell("NAND2"), 0, []SigID{u0, u1}, geom.Point{})
	n.AddPO("o", u2)
	grown := append(n.Instances[0].Inputs, u1)
	grown[0] = u1
	want := [][]SigID{{a, b}, {b, b}, {u0, u1}}
	for i, w := range want {
		if got := n.Instances[i].Inputs; !slices.Equal(got, w) {
			t.Errorf("instance %d inputs %v, want %v", i, got, w)
		}
	}
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}
