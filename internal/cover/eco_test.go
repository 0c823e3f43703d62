package cover

import (
	"context"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// deepestTree builds one subject tree shaped like a deepest pattern of
// lib (one of height H with distinct variables), each variable bound
// to NAND(INV(pi), pi). It returns the DAG, the tree root, the depth
// of every gate below the root (-1 off the tree) and a spare INV on a
// second output whose fanin an edit can reconnect.
func deepestTree(t *testing.T, lib *library.Library) (d *subject.DAG, root int, depth []int, spare int) {
	t.Helper()
	h := lib.MaxPatternHeight()
	var leaves func(p *library.Pattern) int
	leaves = func(p *library.Pattern) int {
		if p.Op == library.OpVar {
			return 1
		}
		n := 0
		for _, k := range p.Kids {
			n += leaves(k)
		}
		return n
	}
	var pat *library.Pattern
	for _, c := range lib.Cells() {
		for _, p := range c.Patterns {
			if pat == nil && p.Height() == h && len(p.Vars()) == leaves(p) {
				pat = p
			}
		}
	}
	if pat == nil {
		t.Fatalf("no height-%d pattern with distinct variables", h)
	}
	d = subject.New()
	var build func(p *library.Pattern) int
	build = func(p *library.Pattern) int {
		switch p.Op {
		case library.OpVar:
			return d.AddNand2(d.AddInv(d.AddPI(p.Var+"0")), d.AddPI(p.Var+"1"))
		case library.OpInv:
			return d.AddInv(build(p.Kids[0]))
		default:
			return d.AddNand2(build(p.Kids[0]), build(p.Kids[1]))
		}
	}
	root = build(pat)
	d.AddOutput("o", root)
	spare = d.AddInv(d.AddPI("s"))
	d.AddOutput("s", spare)
	depth = make([]int, d.NumGates())
	for g := range depth {
		depth[g] = -1
	}
	var walk func(g, k int)
	walk = func(g, k int) {
		depth[g] = k
		for _, in := range d.Fanins(g) {
			if tp := d.Gate(in).Type; tp == subject.Nand2 || tp == subject.Inv {
				walk(in, k+1)
			}
		}
	}
	walk(root, 0)
	return d, root, depth, spare
}

// TestRebuildConeBoundary pins the edit cone's reach. Reconnecting the
// spare gate to a gate makes that gate multi-fanout, so DAGON cuts it
// loose: its father changes. A touched gate exactly H levels below the
// root is a leaf of the root's deepest match, whose cached geometry
// now differs, so the root must be re-enumerated; one level deeper the
// root must share its slice. Either way the rebuilt prefix equals a
// fresh BuildPrefix of the edited design.
func TestRebuildConeBoundary(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	lib := library.Default()
	h := lib.MaxPatternHeight()
	for _, below := range []int{h, h + 1} {
		d, root, depth, spare := deepestTree(t, lib)
		pos := make([]geom.Point, d.NumGates())
		for g := range pos {
			pos[g] = geom.Pt(float64(3*g%17), float64(5*g%13))
		}
		forest, err := partition.Partition(partition.Input{DAG: d, Pos: pos}, partition.Dagon)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := BuildPrefix(ctx, d, forest, lib, pos, 1)
		if err != nil {
			t.Fatal(err)
		}
		touched := -1
		for g, k := range depth {
			if k == below {
				touched = g
				break
			}
		}
		if touched < 0 {
			t.Fatalf("no gate %d levels below the root", below)
		}
		edited := d.Clone()
		if err := edited.SetGate(spare, subject.Inv, [2]int{touched, -1}); err != nil {
			t.Fatal(err)
		}
		newForest, err := partition.Partition(partition.Input{DAG: edited, Pos: pos}, partition.Dagon)
		if err != nil {
			t.Fatal(err)
		}
		if newForest.Father[touched] == forest.Father[touched] {
			t.Fatalf("%d below: the reconnect left gate %d's father unchanged", below, touched)
		}
		var refathered []int
		for g := range newForest.Father {
			if newForest.Father[g] != forest.Father[g] || (newForest.RootOf()[g] < 0) != (forest.RootOf()[g] < 0) {
				refathered = append(refathered, g)
			}
		}
		rb, err := RebuildPrefix(ctx, edited, newForest, lib, pos, 1, forest, prev, Change{Edited: []int{spare}, Refathered: refathered})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := BuildPrefix(ctx, edited, newForest, lib, pos, 1)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < edited.NumGates(); g++ {
			if err := DiffMatches(rb.Prefix, fresh, g); err != nil {
				t.Errorf("%d below: rebuilt prefix differs from a fresh one: %v", below, err)
			}
		}
		shares := SharesMatches(prev, rb.Prefix, root)
		switch {
		case below == h && shares:
			t.Errorf("a touched gate %d levels below the root left the root's matches shared", below)
		case below == h && DiffMatches(prev, fresh, root) == nil:
			t.Errorf("the root's matches do not read the gate %d levels below it; the boundary is vacuous", below)
		case below > h && !shares:
			t.Errorf("a touched gate %d levels below the root re-enumerated the root", below)
		}
	}
}
