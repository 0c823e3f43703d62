package cover

import (
	"context"
	"math"
	"slices"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// nand3Chain builds NAND3-shaped logic: root = NAND(a, INV(NAND(b,c))).
func nand3Chain() (*subject.DAG, int) {
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	inner := d.AddNand2(b, c)
	mid := d.AddInv(inner)
	root := d.AddNand2(a, mid)
	d.AddOutput("o", root)
	return d, root
}

func coverIt(t *testing.T, d *subject.DAG, pos []geom.Point, opts Options) (*Result, *partition.Forest) {
	t.Helper()
	method := partition.Dagon
	in := partition.Input{DAG: d, Pos: pos}
	if pos == nil {
		in.Pos = make([]geom.Point, d.NumGates())
	}
	f, err := partition.Partition(in, method)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coverFull(d, f, in.Pos, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, f
}

// coverFull builds the prefix and runs the covering DP over it.
func coverFull(d *subject.DAG, f *partition.Forest, pos []geom.Point, opts Options) (*Result, error) {
	prefix, err := BuildPrefix(context.Background(), d, f, library.Default(), pos, opts.Workers)
	if err != nil {
		return nil, err
	}
	return CoverWithPrefix(context.Background(), d, f, prefix, opts)
}

func TestMinAreaPicksNand3(t *testing.T) {
	t.Parallel()
	d, root := nand3Chain()
	res, _ := coverIt(t, d, nil, Options{K: 0})
	sol := res.Best[root]
	if sol.Match.Cell.Name != "NAND3" {
		t.Errorf("root match = %s, want NAND3", sol.Match.Cell.Name)
	}
	lib := library.Default()
	if math.Abs(sol.AreaCost-lib.Cell("NAND3").Area) > 1e-9 {
		t.Errorf("area cost = %g, want %g", sol.AreaCost, lib.Cell("NAND3").Area)
	}
	if math.Abs(res.RootArea-lib.Cell("NAND3").Area) > 1e-9 {
		t.Errorf("RootArea = %g", res.RootArea)
	}
}

// TestMinAreaOptimality exhaustively checks DP optimality on a small
// tree against brute-force enumeration of covers.
func TestMinAreaOptimality(t *testing.T) {
	t.Parallel()
	// Tree: root = NAND(INV(NAND(a,b)), INV(NAND(c,e))) — the NAND4
	// shape; the DP must find NAND4's area if it is the cheapest.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	e := d.AddPI("e")
	l := d.AddInv(d.AddNand2(a, b))
	r := d.AddInv(d.AddNand2(c, e))
	root := d.AddNand2(l, r)
	d.AddOutput("o", root)
	res, _ := coverIt(t, d, nil, Options{K: 0})
	lib := library.Default()
	// Candidate covers: NAND4 (21.632); AND2+AND2+NAND2 (13.312*2 +
	// 11.648 = 38.272); NAND2+4×(INV/NAND2)... NAND4 must win.
	if res.Best[root].Match.Cell.Name != "NAND4" {
		t.Errorf("root match = %s, want NAND4", res.Best[root].Match.Cell.Name)
	}
	if math.Abs(res.RootArea-lib.Cell("NAND4").Area) > 1e-9 {
		t.Errorf("RootArea = %g, want %g", res.RootArea, lib.Cell("NAND4").Area)
	}
}

func TestCoverAlwaysFeasible(t *testing.T) {
	t.Parallel()
	// A shape no complex cell fully covers still maps via base cells.
	d := subject.New()
	a := d.AddPI("a")
	x := d.AddInv(a)
	b := d.AddPI("b")
	y := d.AddNand2(x, b)
	d.AddOutput("o", y)
	res, _ := coverIt(t, d, nil, Options{K: 0})
	if res.Best[y] == nil || res.Best[x] == nil {
		t.Fatal("missing solutions")
	}
}

// TestFigure1Tradeoff reproduces the paper's Figure 1 scenario: with
// fanins placed far from the min-area cell's location, a positive K
// must switch the cover to a higher-area, shorter-wire solution.
func TestFigure1Tradeoff(t *testing.T) {
	t.Parallel()
	d, root := nand3Chain()
	// Positions: put the NAND3's would-be location far from b,c.
	pos := make([]geom.Point, d.NumGates())
	aID := 0 // PIs were added first: a=0, b=1, c=2
	pos[aID] = geom.Pt(0, 0)
	pos[1] = geom.Pt(100, 0)
	pos[2] = geom.Pt(100, 10)
	pos[3] = geom.Pt(100, 5)   // inner NAND(b,c) sits near b,c
	pos[4] = geom.Pt(50, 5)    // mid INV in between
	pos[5] = geom.Pt(0, 5)     // root near a
	d.AddOutput("dummy", root) // keep root a root under Dagon
	resArea, _ := coverIt(t, d, pos, Options{K: 0})
	resCong, _ := coverIt(t, d, pos, Options{K: 10})
	areaA := resArea.RootArea
	areaC := resCong.RootArea
	wireA := resArea.RootWire
	wireC := resCong.RootWire
	if areaC < areaA {
		t.Errorf("congestion cover area %g < min area %g", areaC, areaA)
	}
	if wireC >= wireA {
		t.Errorf("congestion cover wire %g not below min-area wire %g", wireC, wireA)
	}
	if resArea.Best[root].Match.Cell.Name != "NAND3" {
		t.Errorf("K=0 root = %s, want NAND3", resArea.Best[root].Match.Cell.Name)
	}
	if resCong.Best[root].Match.Cell.Name == "NAND3" {
		t.Error("K=10 still picks NAND3 despite long wires")
	}
}

func TestKZeroMatchesDagonAreaInvariance(t *testing.T) {
	t.Parallel()
	// With K=0 the positions must not affect the chosen area.
	d, _ := nand3Chain()
	posA := make([]geom.Point, d.NumGates())
	posB := make([]geom.Point, d.NumGates())
	for i := range posB {
		posB[i] = geom.Pt(float64(i*37%11), float64(i*17%7))
	}
	r1, _ := coverIt(t, d, posA, Options{K: 0})
	r2, _ := coverIt(t, d, posB, Options{K: 0})
	if math.Abs(r1.RootArea-r2.RootArea) > 1e-9 {
		t.Errorf("K=0 area depends on placement: %g vs %g", r1.RootArea, r2.RootArea)
	}
}

func TestCenterOfMassAndIncrementalUpdate(t *testing.T) {
	t.Parallel()
	d, root := nand3Chain()
	pos := make([]geom.Point, d.NumGates())
	// Gates 3,4,5 are inner, mid, root.
	pos[3] = geom.Pt(0, 0)
	pos[4] = geom.Pt(3, 0)
	pos[5] = geom.Pt(6, 0)
	res, _ := coverIt(t, d, pos, Options{K: 0})
	sol := res.Best[root]
	if sol.Match.Cell.Name != "NAND3" {
		t.Skipf("library changed; root = %s", sol.Match.Cell.Name)
	}
	// CoM of gates {5,4,3} = (3,0).
	if sol.Pos != geom.Pt(3, 0) {
		t.Errorf("CoM = %v, want (3,0)", sol.Pos)
	}
	// Committed positions: covered gates moved to CoM.
	for _, g := range []int{3, 4, 5} {
		if res.Pos[g] != geom.Pt(3, 0) {
			t.Errorf("gate %d pos = %v, want CoM", g, res.Pos[g])
		}
	}
	// Input (original) positions slice untouched.
	if pos[3] != geom.Pt(0, 0) {
		t.Error("Cover mutated the caller's position slice")
	}
}

func TestWireCostTwoLevelScope(t *testing.T) {
	t.Parallel()
	// Chain of three INVs: x -> i1 -> i2 -> i3 (root). With default
	// options, WIRE at the root counts the root match's fanin wire
	// plus its child's WIRE1 — not the grandchild's.
	d := subject.New()
	x := d.AddPI("x")
	b := d.AddPI("b")
	n1 := d.AddNand2(x, b)
	n2 := d.AddNand2(n1, x) // forces n1 single-fanout chain? no: n1 feeds n2 only
	n3 := d.AddNand2(n2, b)
	d.AddOutput("o", n3)
	pos := make([]geom.Point, d.NumGates())
	pos[x] = geom.Pt(0, 0)
	pos[b] = geom.Pt(0, 10)
	pos[n1] = geom.Pt(10, 0)
	pos[n2] = geom.Pt(20, 0)
	pos[n3] = geom.Pt(30, 0)
	fullRes, _ := coverIt(t, d, pos, Options{K: 1e-6})
	noW2, _ := coverIt(t, d, pos, Options{K: 1e-6, NoWire2: true})
	trans, _ := coverIt(t, d, pos, Options{K: 1e-6, TransitiveWire: true})
	// Monotonicity of scope: WIRE1-only <= two-level <= transitive.
	if noW2.RootWire > fullRes.RootWire+1e-9 {
		t.Errorf("NoWire2 wire %g > default %g", noW2.RootWire, fullRes.RootWire)
	}
	if fullRes.RootWire > trans.RootWire+1e-9 {
		t.Errorf("two-level wire %g > transitive %g", fullRes.RootWire, trans.RootWire)
	}
}

func TestCoverErrorOnShortPositions(t *testing.T) {
	t.Parallel()
	d, _ := nand3Chain()
	f, err := partition.Partition(partition.Input{DAG: d}, partition.Dagon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coverFull(d, f, nil, Options{}); err == nil {
		t.Error("short position slice accepted")
	}
}

// TestSelectedLeafSubtrees: a solution's subtree-leaf flags name the
// leaves the walk of the chosen cover descends into.
func TestSelectedLeafSubtrees(t *testing.T) {
	t.Parallel()
	d, root := nand3Chain()
	res, _ := coverIt(t, d, nil, Options{K: 0})
	sol := res.Best[root]
	// NAND3 covers the whole tree: all leaves are PIs → no subtrees.
	if sol.SubLeaf != 0 {
		t.Errorf("subtree leaves %b, want none", sol.SubLeaf)
	}
	// On a multi-tree circuit, a leaf heads a subtree iff it is in the
	// solution's tree and its father is a gate the match covers.
	bd, forest, prefix, _, _ := benchPrefix(t)
	bres, err := CoverWithPrefix(context.Background(), bd, forest, prefix, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	rootOf := forest.RootOf()
	subtrees := 0
	for v, sol := range bres.Best {
		if sol == nil {
			continue
		}
		if sol.SubLeaf>>len(sol.Match.Leaves) != 0 {
			t.Fatalf("gate %d: subtree flags %b beyond its %d leaves", v, sol.SubLeaf, len(sol.Match.Leaves))
		}
		for li, l := range sol.Match.Leaves {
			want := rootOf[l] == rootOf[v] && slices.Contains(sol.Match.Covered, forest.Father[l])
			if sol.SubtreeLeaf(li) != want {
				t.Fatalf("gate %d leaf %d (gate %d): subtree flag %v, want %v", v, li, l, sol.SubtreeLeaf(li), want)
			}
			if want {
				subtrees++
			}
		}
	}
	if subtrees == 0 {
		t.Fatal("no solution has a subtree leaf; the check is vacuous")
	}
}

// TestCoverWorkersDeterminism: the per-tree fan-out must produce
// results identical to the serial pass — same solutions, same wire
// totals, same committed placement — on a multi-tree forest with
// cross-tree references.
func TestCoverWorkersDeterminism(t *testing.T) {
	t.Parallel()
	// A forest with several trees: a shared subexpression fans out to
	// three cones, so PDP/Dagon cut it into multiple trees with
	// cross-tree leaf references.
	d := subject.New()
	var pis []int
	for i := 0; i < 6; i++ {
		pis = append(pis, d.AddPI(string(rune('a'+i))))
	}
	shared := d.AddNand2(pis[0], pis[1])
	for i := 0; i < 3; i++ {
		c1 := d.AddNand2(shared, pis[2+i])
		c2 := d.AddInv(c1)
		c3 := d.AddNand2(c2, pis[5])
		d.AddOutput(string(rune('x'+i)), c3)
	}
	pos := make([]geom.Point, d.NumGates())
	for i := range pos {
		pos[i] = geom.Pt(float64(i*13%37), float64(i*7%23))
	}
	f, err := partition.Partition(partition.Input{DAG: d, Pos: pos}, partition.Dagon)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) < 2 {
		t.Fatalf("want a multi-tree forest, got %d roots", len(f.Roots))
	}
	run := func(workers int) *Result {
		res, err := coverFull(d, f, pos, Options{K: 0.01, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		par := run(w)
		if serial.RootArea != par.RootArea || serial.RootWire != par.RootWire {
			t.Errorf("workers=%d: reduction differs: area %g/%g wire %g/%g",
				w, serial.RootArea, par.RootArea, serial.RootWire, par.RootWire)
		}
		for g := range serial.Best {
			a, b := serial.Best[g], par.Best[g]
			if (a == nil) != (b == nil) {
				t.Fatalf("workers=%d: solution presence differs at gate %d", w, g)
			}
			if a != nil && (a.Match.Cell.Name != b.Match.Cell.Name || a.Wire != b.Wire || a.Pos != b.Pos) {
				t.Errorf("workers=%d: gate %d solution differs: %s/%s", w, g, a.Match.Cell.Name, b.Match.Cell.Name)
			}
		}
		for g := range serial.Pos {
			if serial.Pos[g] != par.Pos[g] {
				t.Errorf("workers=%d: committed position differs at gate %d", w, g)
			}
		}
	}
}
