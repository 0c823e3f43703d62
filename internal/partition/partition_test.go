package partition

import (
	"math/rand"
	"slices"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/subject"
)

// buildDiamond builds a DAG with a shared (multi-fanout) vertex:
//
//	n1 = NAND(a,b)            (multi-fanout)
//	n2 = NAND(n1,c)
//	n3 = NAND(n1,d)
//	n4 = NAND(n2,n3)   → PO
func buildDiamond() (*subject.DAG, [4]int) {
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	e := d.AddPI("d")
	n1 := d.AddNand2(a, b)
	n2 := d.AddNand2(n1, c)
	n3 := d.AddNand2(n1, e)
	n4 := d.AddNand2(n2, n3)
	d.AddOutput("o", n4)
	return d, [4]int{n1, n2, n3, n4}
}

func uniformPos(d *subject.DAG) []geom.Point {
	pos := make([]geom.Point, d.NumGates())
	for i := range pos {
		pos[i] = geom.Pt(float64(i), 0)
	}
	return pos
}

func TestDagonCutsMultiFanout(t *testing.T) {
	t.Parallel()
	d, n := buildDiamond()
	f, err := Partition(Input{DAG: d}, Dagon)
	if err != nil {
		t.Fatal(err)
	}
	// n1 is multi-fanout: must be a root. n2, n3 are single-fanout:
	// fathered by n4. n4 drives the PO: root.
	if f.Father[n[0]] != -1 {
		t.Error("multi-fanout vertex must be a DAGON root")
	}
	if f.Father[n[1]] != n[3] || f.Father[n[2]] != n[3] {
		t.Error("single-fanout vertices must join their consumer")
	}
	if f.Father[n[3]] != -1 {
		t.Error("PO driver must be a root")
	}
	if len(f.Roots) != 2 {
		t.Errorf("roots = %v, want 2", f.Roots)
	}
}

func TestConeAssignsByFirstReach(t *testing.T) {
	t.Parallel()
	// Two outputs sharing n1; the first output's cone takes n1.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	n1 := d.AddNand2(a, b)
	n2 := d.AddNand2(n1, a)
	n3 := d.AddNand2(n1, b)
	d.AddOutput("o1", n2)
	d.AddOutput("o2", n3)
	f, err := Partition(Input{DAG: d}, Cone)
	if err != nil {
		t.Fatal(err)
	}
	if f.Father[n1] != n2 {
		t.Errorf("n1 fathered by %d, want first cone %d", f.Father[n1], n2)
	}
	if f.Father[n2] != -1 || f.Father[n3] != -1 {
		t.Error("PO drivers must stay roots")
	}
}

func TestPDPNearestFather(t *testing.T) {
	t.Parallel()
	d, n := buildDiamond()
	pos := make([]geom.Point, d.NumGates())
	// Place n1 next to n3 and far from n2.
	pos[n[0]] = geom.Pt(10, 10)
	pos[n[1]] = geom.Pt(50, 50)
	pos[n[2]] = geom.Pt(11, 10)
	pos[n[3]] = geom.Pt(30, 30)
	f, err := Partition(Input{DAG: d, Pos: pos}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	if f.Father[n[0]] != n[2] {
		t.Errorf("n1 fathered by %d, want nearest consumer %d", f.Father[n[0]], n[2])
	}
	// Moving n2 close flips the decision.
	pos[n[1]] = geom.Pt(10, 11)
	pos[n[2]] = geom.Pt(90, 90)
	f, err = Partition(Input{DAG: d, Pos: pos}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	if f.Father[n[0]] != n[1] {
		t.Errorf("n1 fathered by %d after move, want %d", f.Father[n[0]], n[1])
	}
}

func TestPDPPadNearest(t *testing.T) {
	t.Parallel()
	// A gate drives both a PO pad and another gate; when the pad is
	// nearest the gate must stay a root.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	g := d.AddNand2(a, b)
	h := d.AddInv(g)
	d.AddOutput("og", g)
	d.AddOutput("oh", h)
	pos := make([]geom.Point, d.NumGates())
	pos[g] = geom.Pt(0, 0)
	pos[h] = geom.Pt(100, 0)
	pads := map[int][]geom.Point{g: {geom.Pt(1, 0)}, h: {geom.Pt(100, 1)}}
	f, err := Partition(Input{DAG: d, Pos: pos, POPads: pads}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	if f.Father[g] != -1 {
		t.Error("pad-nearest gate must stay a root")
	}
	// Now the consumer is nearer than the pad: g joins h's tree.
	pads[g] = []geom.Point{geom.Pt(500, 500)}
	pos[h] = geom.Pt(2, 0)
	f, err = Partition(Input{DAG: d, Pos: pos, POPads: pads}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	if f.Father[g] != h {
		t.Errorf("g fathered by %d, want consumer %d", f.Father[g], h)
	}
}

func TestPDPRequiresPositions(t *testing.T) {
	t.Parallel()
	d, _ := buildDiamond()
	if _, err := Partition(Input{DAG: d}, PDP); err == nil {
		t.Error("PDP without positions must error")
	}
	if _, err := Partition(Input{DAG: nil}, Dagon); err == nil {
		t.Error("nil DAG must error")
	}
	if _, err := Partition(Input{DAG: d}, Method(99)); err == nil {
		t.Error("unknown method must error")
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(rng *rand.Rand, pis, gates int) *subject.DAG {
	d := subject.New()
	var sigs []int
	for i := 0; i < pis; i++ {
		sigs = append(sigs, d.AddPI(piName(i)))
	}
	for i := 0; i < gates; i++ {
		a := sigs[rng.Intn(len(sigs))]
		b := sigs[rng.Intn(len(sigs))]
		var g int
		if rng.Intn(4) == 0 {
			g = d.AddInv(a)
		} else {
			g = d.AddNand2(a, b)
		}
		sigs = append(sigs, g)
	}
	// A handful of outputs from the last signals.
	for i := 0; i < 4 && i < len(sigs); i++ {
		d.AddOutput(poName(i), sigs[len(sigs)-1-i])
	}
	return d
}

func piName(i int) string { return "pi" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }
func poName(i int) string { return "po" + string(rune('0'+i)) }

// checkForestInvariants validates structural properties every
// partitioner must maintain.
func checkForestInvariants(t *testing.T, d *subject.DAG, f *Forest, method Method) {
	t.Helper()
	live := map[int]bool{}
	for _, g := range d.LiveGates() {
		live[g] = true
	}
	for g, fa := range f.Father {
		if fa < 0 {
			continue
		}
		// The father must be a live consumer of g.
		if !live[fa] || !live[g] {
			t.Fatalf("%v: father link %d->%d involves dead gate", method, g, fa)
		}
		found := false
		for _, fo := range d.Fanouts(g) {
			if fo == fa {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%v: father %d is not a fanout of %d", method, fa, g)
		}
	}
	// Every live tree gate is in exactly one tree (reachable from
	// exactly one root via father links).
	trees := f.Trees()
	seen := map[int]int{}
	for ti, tr := range trees {
		for _, g := range tr.Gates {
			if prev, dup := seen[g]; dup {
				t.Fatalf("%v: gate %d in trees %d and %d", method, g, prev, ti)
			}
			seen[g] = ti
		}
		if tr.Gates[len(tr.Gates)-1] != tr.Root {
			t.Fatalf("%v: root not last in topo order", method)
		}
	}
	for g := range live {
		gt := d.Gate(g).Type
		if gt != subject.Nand2 && gt != subject.Inv {
			continue
		}
		if _, ok := seen[g]; !ok {
			t.Fatalf("%v: live gate %d in no tree", method, g)
		}
	}
}

func TestForestInvariantsAcrossMethods(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		d := randomDAG(rng, 6, 40)
		pos := make([]geom.Point, d.NumGates())
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		for _, m := range []Method{Dagon, Cone, PDP} {
			f, err := Partition(Input{DAG: d, Pos: pos}, m)
			if err != nil {
				t.Fatal(err)
			}
			checkForestInvariants(t, d, f, m)
		}
	}
}

// TestPDPOrderIndependence verifies the paper's claim: PDP depends
// only on positions, not on output processing order. We emulate order
// change by building the same logic with outputs declared in reverse.
func TestPDPOrderIndependence(t *testing.T) {
	t.Parallel()
	build := func(reverse bool) (*subject.DAG, []geom.Point) {
		d := subject.New()
		a := d.AddPI("a")
		b := d.AddPI("b")
		c := d.AddPI("c")
		n1 := d.AddNand2(a, b)
		n2 := d.AddNand2(n1, c)
		n3 := d.AddNand2(n1, a)
		if reverse {
			d.AddOutput("o2", n3)
			d.AddOutput("o1", n2)
		} else {
			d.AddOutput("o1", n2)
			d.AddOutput("o2", n3)
		}
		pos := uniformPos(d)
		return d, pos
	}
	d1, p1 := build(false)
	d2, p2 := build(true)
	f1, err := Partition(Input{DAG: d1, Pos: p1}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Partition(Input{DAG: d2, Pos: p2}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	// Gate IDs are identical across builds (same creation order).
	for g := range f1.Father {
		if f1.Father[g] != f2.Father[g] {
			t.Fatalf("PDP differs with output order: gate %d: %d vs %d", g, f1.Father[g], f2.Father[g])
		}
	}
	// Cone, by contrast, is expected to differ on this example.
	c1, _ := Partition(Input{DAG: d1}, Cone)
	c2, _ := Partition(Input{DAG: d2}, Cone)
	same := true
	for g := range c1.Father {
		if c1.Father[g] != c2.Father[g] {
			same = false
			break
		}
	}
	if same {
		t.Log("cone partition happened to match across orders on this example")
	}
}

// TestPDPNearestInvariant is the paper's stated property: the father
// of every internal vertex is the nearest consumer.
func TestPDPNearestInvariant(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		d := randomDAG(rng, 5, 30)
		pos := make([]geom.Point, d.NumGates())
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
		}
		f, err := Partition(Input{DAG: d, Pos: pos}, PDP)
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]bool{}
		for _, g := range d.LiveGates() {
			live[g] = true
		}
		for g, fa := range f.Father {
			if fa < 0 {
				continue
			}
			dg := pos[g].Manhattan(pos[fa])
			for _, fo := range d.Fanouts(g) {
				if !live[fo] {
					continue
				}
				if pos[g].Manhattan(pos[fo]) < dg-1e-12 {
					t.Fatalf("gate %d: father %d at %g but consumer %d at %g",
						g, fa, dg, fo, pos[g].Manhattan(pos[fo]))
				}
			}
		}
	}
}

func TestTreesTopologicalAndChildren(t *testing.T) {
	t.Parallel()
	d, n := buildDiamond()
	f, err := Partition(Input{DAG: d}, Dagon)
	if err != nil {
		t.Fatal(err)
	}
	trees := f.Trees()
	var big *Tree
	for i := range trees {
		if trees[i].Root == n[3] {
			big = &trees[i]
		}
	}
	if big == nil {
		t.Fatal("tree rooted at n4 missing")
	}
	if len(big.Gates) != 3 {
		t.Fatalf("tree gates = %v, want {n2,n3,n4}", big.Gates)
	}
	var kids []int
	for g, fa := range f.Father {
		if fa == n[3] {
			kids = append(kids, g)
		}
	}
	if len(kids) != 2 {
		t.Errorf("children of root = %v", kids)
	}
	if !slices.Contains(big.Gates, n[1]) || !slices.Contains(big.Gates, n[2]) || slices.Contains(big.Gates, n[0]) {
		t.Error("tree membership wrong")
	}
	trees = f.Trees()
	treeGates, maxTree := 0, 0
	for _, tr := range trees {
		treeGates += len(tr.Gates)
		maxTree = max(maxTree, len(tr.Gates))
	}
	if len(trees) != 2 || treeGates != 4 || maxTree != 3 {
		t.Errorf("trees = %d, tree gates = %d, largest tree = %d", len(trees), treeGates, maxTree)
	}
}

func TestMethodString(t *testing.T) {
	t.Parallel()
	if Dagon.String() != "dagon" || Cone.String() != "cone" || PDP.String() != "pdp" {
		t.Error("Method.String broken")
	}
}
