package bnet

import (
	"math/rand"
	"testing"

	"casyn/internal/logic"
)

func TestFastExtractPreservesFunction(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		ni, no := 8, 4
		p := logic.NewPLA(ni, no)
		for k := 0; k < 30; k++ {
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
			if rng.Intn(2) == 0 {
				row[rng.Intn(no)] = true
			}
			if err := p.AddTerm(cb, row); err != nil {
				t.Fatal(err)
			}
		}
		n, err := FromPLA(p)
		if err != nil {
			t.Fatal(err)
		}
		before := n.Clone()
		rep := FastExtract(n, FastExtractOptions{MinPairCount: 2})
		if err := CheckEquivalence(before, n, 256, rng); err != nil {
			t.Fatalf("trial %d: %v (report %+v)", trial, err, rep)
		}
	}
}

func TestFastExtractReducesLiterals(t *testing.T) {
	t.Parallel()
	// Heavy shared-motif structure: extraction must shrink literals.
	rng := rand.New(rand.NewSource(73))
	ni, no := 10, 6
	p := logic.NewPLA(ni, no)
	motif := logic.NewCube(ni)
	motif.SetPos(0)
	motif.SetPos(1)
	motif.SetNeg(2)
	for k := 0; k < 40; k++ {
		cb := motif.Clone()
		i := 3 + rng.Intn(ni-3)
		cb.SetPos(i)
		row := make([]bool, no)
		row[rng.Intn(no)] = true
		if err := p.AddTerm(cb, row); err != nil {
			t.Fatal(err)
		}
	}
	n, err := FromPLA(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := FastExtract(n, FastExtractOptions{})
	if rep.LiteralsAfter >= rep.LiteralsBefore {
		t.Errorf("literals did not shrink: %+v", rep)
	}
	if rep.NewNodes == 0 {
		t.Error("no divisors extracted from motif-heavy PLA")
	}
	maxFO := 0
	for _, node := range n.nodes {
		maxFO = max(maxFO, len(n.Fanouts(node.ID)))
	}
	if maxFO < 3 {
		t.Errorf("expected heavily shared nodes, max fanout %d", maxFO)
	}
}

func TestShareIdenticalCubes(t *testing.T) {
	t.Parallel()
	// The same cube in two outputs is extracted once and shared.
	n := New()
	a := n.AddPI("a")
	b := n.AddPI("b")
	c := n.AddPI("c")
	cube1 := mkCube(Lit{a, false}, Lit{b, false})
	cube2 := mkCube(Lit{a, false}, Lit{b, false})
	f := n.AddInternal("f", NewSop(cube1, mkCube(Lit{c, false})))
	g := n.AddInternal("g", NewSop(cube2))
	n.AddPO("of", f, false)
	n.AddPO("og", g, false)
	before := n.Clone()
	made := shareIdenticalCubes(n)
	if made != 1 {
		t.Fatalf("made %d nodes, want 1", made)
	}
	if err := CheckEquivalence(before, n, 64, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
}
