package mapper

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"casyn/internal/bnet"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/partition"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// samplePLA builds a random multi-output PLA with sharing.
func samplePLA(rng *rand.Rand, ni, no, terms int) *logic.PLA {
	p := logic.NewPLA(ni, no)
	for k := 0; k < terms; k++ {
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
		if rng.Intn(3) == 0 {
			row[rng.Intn(no)] = true
		}
		if err := p.AddTerm(cb, row); err != nil {
			panic(err)
		}
	}
	return p
}

// preparedDAG decomposes a PLA into a placed subject DAG.
func preparedDAG(t *testing.T, rng *rand.Rand, ni, no, terms int) (*subject.DAG, Input, *logic.PLA) {
	t.Helper()
	p := samplePLA(rng, ni, no, terms)
	n, err := bnet.FromPLA(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := bnet.FastExtract(n, bnet.FastExtractOptions{MinPairCount: 2}); rep.NewNodes == 0 {
		t.Fatal("fixture has no shared structure: extraction built no nodes")
	}
	d, err := subject.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.LayoutWithRows(12, 120, library.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	pos, poPads, _, _, err := SubjectPlacement(context.Background(), d, layout, place.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return d, Input{Pos: pos, POPads: poPads}, p
}

// checkEquivalent compares the mapped netlist to the PLA behaviour.
func checkEquivalent(t *testing.T, res *Result, p *logic.PLA, rng *rand.Rand, vectors int) {
	t.Helper()
	assign := make([]bool, p.NumInputs)
	for v := 0; v < vectors; v++ {
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		want := p.Eval(assign)
		got, err := res.Netlist.Eval(assign)
		if err != nil {
			t.Fatal(err)
		}
		for o := range want {
			if want[o] != got[o] {
				t.Fatalf("output %d differs at vector %d", o, v)
			}
		}
	}
}

func TestMapMinAreaEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	d, in, p := preparedDAG(t, rng, 7, 3, 16)
	for _, method := range []partition.Method{partition.Dagon, partition.Cone, partition.PDP} {
		res, err := Map(context.Background(), d, in, Options{K: 0, Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if err := res.Netlist.Check(); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		checkEquivalent(t, res, p, rng, 200)
	}
}

func TestMapCongestionEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(43))
	d, in, p := preparedDAG(t, rng, 8, 4, 20)
	for _, k := range []float64{0, 0.0005, 0.01, 0.5, 5} {
		res, err := Map(context.Background(), d, in, Options{K: k})
		if err != nil {
			t.Fatalf("K=%g: %v", k, err)
		}
		checkEquivalent(t, res, p, rng, 150)
	}
}

func TestMapAreaGrowsWithK(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(47))
	d, in, _ := preparedDAG(t, rng, 8, 4, 24)
	area0, err := Map(context.Background(), d, in, Options{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	areaBig, err := Map(context.Background(), d, in, Options{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if areaBig.CellArea < area0.CellArea-1e-9 {
		t.Errorf("area at huge K (%g) below min area (%g)", areaBig.CellArea, area0.CellArea)
	}
	if area0.WireEstimate < areaBig.WireEstimate-1e-9 {
		t.Logf("wire estimate: K=0 %g, K=100 %g", area0.WireEstimate, areaBig.WireEstimate)
	}
}

func TestMapWireShrinksWithK(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(53))
	d, in, _ := preparedDAG(t, rng, 8, 4, 24)
	res0, err := Map(context.Background(), d, in, Options{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	resK, err := Map(context.Background(), d, in, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resK.WireEstimate > res0.WireEstimate+1e-9 {
		t.Errorf("wire estimate rose with K: %g -> %g", res0.WireEstimate, resK.WireEstimate)
	}
}

func TestDuplicationAccounting(t *testing.T) {
	t.Parallel()
	// Force duplication: multi-fanout gate covered inside its father's
	// tree under PDP while another tree references it.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	shared := d.AddNand2(a, b) // multi-fanout
	i1 := d.AddInv(shared)     // consumer 1 (near)
	far := d.AddNand2(shared, c)
	d.AddOutput("o1", i1)
	d.AddOutput("o2", far)
	pos := make([]geom.Point, d.NumGates())
	pos[shared] = geom.Pt(0, 0)
	pos[i1] = geom.Pt(1, 0) // nearest consumer: father
	pos[far] = geom.Pt(50, 0)
	res, err := Map(context.Background(), d, Input{Pos: pos}, Options{K: 0, Method: partition.PDP})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Netlist.Check(); err != nil {
		t.Fatal(err)
	}
	// Behaviour check over all 8 assignments.
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		want, _ := d.EvalOutputs(in)
		got, err := res.Netlist.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for o := range want {
			if want[o] != got[o] {
				t.Fatalf("output %d wrong at minterm %d", o, m)
			}
		}
	}
	// DAGON on the same input never duplicates.
	resD, err := Map(context.Background(), d, Input{Pos: pos}, Options{K: 0, Method: partition.Dagon})
	if err != nil {
		t.Fatal(err)
	}
	if resD.DuplicatedCells != 0 {
		t.Errorf("DAGON duplicated %d cells", resD.DuplicatedCells)
	}
}

func TestSubjectPlacement(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(59))
	p := samplePLA(rng, 6, 3, 12)
	n, err := bnet.FromPLA(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := subject.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	layout, _ := place.LayoutWithRows(8, 80, library.RowHeight)
	pos, poPads, piPads, poList, err := SubjectPlacement(context.Background(), d, layout, place.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != d.NumGates() {
		t.Fatalf("pos length %d", len(pos))
	}
	if len(piPads) != len(d.PIs()) || len(poList) != len(d.Outputs()) {
		t.Fatal("pad counts wrong")
	}
	// All base gates inside the die.
	ld := layout.Die
	die := geom.R(ld.Min.X-1e-6, ld.Min.Y-1e-6, ld.Max.X+1e-6, ld.Max.Y+1e-6)
	for _, g := range d.LiveGates() {
		gt := d.Gate(g).Type
		if gt == subject.Nand2 || gt == subject.Inv {
			if !die.Contains(pos[g]) {
				t.Errorf("gate %d outside die at %v", g, pos[g])
			}
		}
	}
	// PO pads recorded for PO-driving gates.
	for _, o := range d.Outputs() {
		if len(poPads[o.Gate]) == 0 {
			t.Errorf("no pad for PO %s", o.Name)
		}
	}
	// PIs sit on their pads.
	for i, pi := range d.PIs() {
		if pos[pi] != piPads[i] {
			t.Errorf("PI %d not at its pad", i)
		}
	}
}

func TestMapSummaryMentionsCells(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(61))
	d, in, _ := preparedDAG(t, rng, 6, 2, 10)
	res, err := Map(context.Background(), d, in, Options{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCells != res.Netlist.NumCells() {
		t.Error("NumCells mismatch")
	}
	if len(res.InstGate) != res.NumCells {
		t.Error("InstGate length mismatch")
	}
}

// TestInstanceNames: the batched names are "u0", "u1", … in order,
// across batch refills too.
func TestInstanceNames(t *testing.T) {
	t.Parallel()
	names := instanceNames{batch: 70}
	for i := 0; i < 300; i++ {
		if got, want := names.next(), "u"+strconv.Itoa(i); got != want {
			t.Fatalf("name %d = %q, want %q", i, got, want)
		}
	}
}
