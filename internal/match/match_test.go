package match

import (
	"testing"

	"casyn/internal/library"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// treeMatcher partitions d with DAGON and returns a matcher for the
// tree rooted at root.
func treeMatcher(t *testing.T, d *subject.DAG, root int) *Matcher {
	t.Helper()
	f, err := partition.Partition(partition.Input{DAG: d}, partition.Dagon)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.Trees() {
		if tr.Root == root {
			return NewMatcher(d, library.Default(), f.Father, inTree(tr))
		}
	}
	t.Fatalf("no tree rooted at %d", root)
	return nil
}

// inTree returns a membership test for tr's gates.
func inTree(tr partition.Tree) func(gate int) bool {
	set := make(map[int]bool, len(tr.Gates))
	for _, g := range tr.Gates {
		set[g] = true
	}
	return func(g int) bool { return set[g] }
}

func cellNames(ms []Match) map[string]bool {
	out := map[string]bool{}
	for _, m := range ms {
		out[m.Cell.Name] = true
	}
	return out
}

func TestMatchNand2AndInv(t *testing.T) {
	t.Parallel()
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	n := d.AddNand2(a, b)
	d.AddOutput("o", n)
	ms := treeMatcher(t, d, n).MatchesAt(n)
	names := cellNames(ms)
	if !names["NAND2"] {
		t.Errorf("NAND2 not matched: %v", names)
	}
	for _, m := range ms {
		if m.Cell.Name == "NAND2" {
			if len(m.Leaves) != 2 || len(m.Covered) != 1 || m.Covered[0] != n {
				t.Errorf("NAND2 match malformed: %+v", m)
			}
		}
	}

	d2 := subject.New()
	x := d2.AddPI("x")
	i := d2.AddInv(x)
	d2.AddOutput("o", i)
	ms2 := treeMatcher(t, d2, i).MatchesAt(i)
	if !cellNames(ms2)["INV"] {
		t.Error("INV not matched")
	}
}

func TestMatchNand3BothShapes(t *testing.T) {
	t.Parallel()
	// NAND3 in "a NAND (b AND c)" shape.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	inner := d.AddNand2(b, c)
	mid := d.AddInv(inner)
	root := d.AddNand2(a, mid)
	d.AddOutput("o", root)
	ms := treeMatcher(t, d, root).MatchesAt(root)
	names := cellNames(ms)
	if !names["NAND3"] {
		t.Errorf("NAND3 not matched at root: %v", names)
	}
	if !names["NAND2"] {
		t.Error("NAND2 must also match at root")
	}
	var n3 Match
	for _, m := range ms {
		if m.Cell.Name == "NAND3" {
			n3 = m
		}
	}
	if len(n3.Covered) != 3 {
		t.Errorf("NAND3 covers %d gates, want 3", len(n3.Covered))
	}
	if len(n3.Leaves) != 3 {
		t.Errorf("NAND3 leaves = %v", n3.Leaves)
	}
	leafSet := map[int]bool{}
	for _, l := range n3.Leaves {
		leafSet[l] = true
	}
	if !leafSet[a] || !leafSet[b] || !leafSet[c] {
		t.Errorf("NAND3 leaves %v, want PIs {%d,%d,%d}", n3.Leaves, a, b, c)
	}
}

func TestMatchAoi21(t *testing.T) {
	t.Parallel()
	// AOI21 = INV(NAND(NAND(a,b), INV(c))).
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	nab := d.AddNand2(a, b)
	ic := d.AddInv(c)
	mid := d.AddNand2(nab, ic)
	root := d.AddInv(mid)
	d.AddOutput("o", root)
	ms := treeMatcher(t, d, root).MatchesAt(root)
	names := cellNames(ms)
	if !names["AOI21"] {
		t.Errorf("AOI21 not matched: %v", names)
	}
	// Commuted construction must also match thanks to permutation.
	d2 := subject.New()
	a2 := d2.AddPI("a")
	b2 := d2.AddPI("b")
	c2 := d2.AddPI("c")
	ic2 := d2.AddInv(c2)
	nab2 := d2.AddNand2(b2, a2)
	mid2 := d2.AddNand2(ic2, nab2)
	root2 := d2.AddInv(mid2)
	d2.AddOutput("o", root2)
	ms2 := treeMatcher(t, d2, root2).MatchesAt(root2)
	if !cellNames(ms2)["AOI21"] {
		t.Error("AOI21 not matched under commuted inputs")
	}
}

func TestMatchStopsAtTreeBoundary(t *testing.T) {
	t.Parallel()
	// inner = NAND(a,b) is multi-fanout: DAGON cuts it, so NAND3 must
	// NOT match across it from the root tree.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	inner := d.AddNand2(a, b)
	mid := d.AddInv(inner)
	root := d.AddNand2(c, mid)
	other := d.AddInv(inner) // second consumer makes inner multi-fanout
	_ = other
	d.AddOutput("o", root)
	d.AddOutput("p", other)

	f, err := partition.Partition(partition.Input{DAG: d}, partition.Dagon)
	if err != nil {
		t.Fatal(err)
	}
	var rootTree *partition.Tree
	for i := range f.Trees() {
		trees := f.Trees()
		if trees[i].Root == root {
			rootTree = &trees[i]
		}
	}
	if rootTree == nil {
		t.Fatal("root tree missing")
	}
	m := NewMatcher(d, library.Default(), f.Father, inTree(*rootTree))
	names := cellNames(m.MatchesAt(root))
	if names["NAND3"] {
		t.Error("NAND3 matched across a tree boundary")
	}
	if !names["NAND2"] {
		t.Error("NAND2 must match at root")
	}
}

func TestMatchRespectsFatherEdge(t *testing.T) {
	t.Parallel()
	// Both consumers of the multi-fanout gate w live in the same tree.
	// The matcher may cover w only through its father edge.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	w := d.AddNand2(a, b)     // multi-fanout inside the tree
	iw := d.AddInv(w)         // consumer 1
	root := d.AddNand2(iw, w) // consumer 2 (and tree root)
	d.AddOutput("o", root)

	// Hand-build a forest where father(w) = iw (not root).
	father := make([]int, d.NumGates())
	for i := range father {
		father[i] = -1
	}
	father[w] = iw
	father[iw] = root
	inTree := func(g int) bool { return g == w || g == iw || g == root }
	m := NewMatcher(d, library.Default(), father, inTree)
	for _, mt := range m.MatchesAt(root) {
		for _, cov := range mt.Covered {
			if cov == w {
				// w may be covered only if reached via iw.
				via := false
				for _, l := range mt.Covered {
					if l == iw {
						via = true
					}
				}
				if !via {
					t.Errorf("%s covered w through a cut edge", mt.Cell.Name)
				}
			}
		}
	}
}

func TestMatchXorRequiresSharedLeaf(t *testing.T) {
	t.Parallel()
	// XOR pattern has repeated variables; it only matches when the
	// repeated leaves bind the same gate. Build the XOR shape with
	// distinct duplicated inputs — must NOT match XOR2.
	d := subject.New()
	a1 := d.AddPI("a1")
	a2 := d.AddPI("a2")
	b1 := d.AddPI("b1")
	b2 := d.AddPI("b2")
	l := d.AddNand2(a1, d.AddInv(b1))
	r := d.AddNand2(d.AddInv(a2), b2)
	root := d.AddNand2(l, r)
	d.AddOutput("o", root)
	ms := treeMatcher(t, d, root).MatchesAt(root)
	if cellNames(ms)["XOR2"] {
		t.Error("XOR2 matched with unequal repeated leaves")
	}
}

func TestEveryTreeVertexHasAMatch(t *testing.T) {
	t.Parallel()
	// Covering feasibility: every NAND2/INV vertex must match at least
	// its base cell.
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	x := d.AddNand2(a, b)
	y := d.AddInv(x)
	z := d.AddNand2(y, c)
	d.AddOutput("o", z)
	f, err := partition.Partition(partition.Input{DAG: d}, partition.Dagon)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.Trees() {
		m := NewMatcher(d, library.Default(), f.Father, inTree(tr))
		for _, g := range tr.Gates {
			if len(m.MatchesAt(g)) == 0 {
				t.Errorf("no match at gate %d (%s)", g, d.Gate(g).Type)
			}
		}
	}
}

// TestMatchFunctionalCorrectness simulates: for every match found, the
// cell's pattern evaluated on the leaf values must equal the subject
// gate's value, over all PI assignments.
func TestMatchFunctionalCorrectness(t *testing.T) {
	t.Parallel()
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	e := d.AddPI("e")
	n1 := d.AddNand2(a, b)
	i1 := d.AddInv(n1)
	n2 := d.AddNand2(i1, c)
	i2 := d.AddInv(n2)
	n3 := d.AddNand2(i2, e)
	d.AddOutput("o", n3)
	f, err := partition.Partition(partition.Input{DAG: d}, partition.Dagon)
	if err != nil {
		t.Fatal(err)
	}
	lib := library.Default()
	for _, tr := range f.Trees() {
		m := NewMatcher(d, lib, f.Father, inTree(tr))
		for _, g := range tr.Gates {
			for _, mt := range m.MatchesAt(g) {
				pat := mt.Cell.Patterns[mt.PatternIndex]
				vars := pat.Vars()
				for mint := 0; mint < 16; mint++ {
					pis := []bool{mint&1 == 1, mint&2 == 2, mint&4 == 4, mint&8 == 8}
					val, err := d.Eval(pis)
					if err != nil {
						t.Fatal(err)
					}
					assign := map[string]bool{}
					for i, v := range vars {
						assign[v] = val[mt.Leaves[i]]
					}
					if got := pat.Eval(assign); got != val[g] {
						t.Fatalf("match %s at gate %d wrong at minterm %d", mt.Cell.Name, g, mint)
					}
				}
			}
		}
	}
}
