package match

import (
	"math/rand"
	"testing"

	"casyn/internal/bnet"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// randomDAG synthesizes a random PLA down to a NAND2/INV subject DAG.
func randomDAG(t *testing.T, rng *rand.Rand, ni, no, terms int) *subject.DAG {
	t.Helper()
	p := logic.NewPLA(ni, no)
	for i := 0; i < terms; i++ {
		cb := logic.NewCube(ni)
		for j := 0; j < ni; j++ {
			switch rng.Intn(3) {
			case 0:
				cb.SetPos(j)
			case 1:
				cb.SetNeg(j)
			}
		}
		outs := make([]bool, no)
		outs[rng.Intn(no)] = true
		if err := p.AddTerm(cb, outs); err != nil {
			t.Fatal(err)
		}
	}
	n, err := bnet.FromPLA(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := subject.Decompose(n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMatchesAreFunctionCompatibleRandom: over random decomposed DAGs,
// every match the matcher reports pairs a cell pattern that is
// function-compatible with the subject subtree — for every PI
// assignment, the pattern evaluated on the leaf values equals the root
// gate's value. This is the semantic contract the mapper relies on:
// substituting the cell for the covered gates cannot change the
// circuit.
func TestMatchesAreFunctionCompatibleRandom(t *testing.T) {
	t.Parallel()
	lib := library.Default()
	rng := rand.New(rand.NewSource(41))
	matches := 0
	for trial := 0; trial < 25; trial++ {
		ni := 2 + rng.Intn(5) // 2..6 PIs keeps 2^ni enumeration cheap
		d := randomDAG(t, rng, ni, 1+rng.Intn(2), 2+rng.Intn(6))
		f, err := partition.Partition(partition.Input{DAG: d}, partition.Dagon)
		if err != nil {
			t.Fatal(err)
		}
		// Precompute gate values for every minterm once per DAG.
		vals := make([][]bool, 1<<ni)
		for m := range vals {
			pis := make([]bool, ni)
			for i := range pis {
				pis[i] = m>>i&1 == 1
			}
			if vals[m], err = d.Eval(pis); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range f.Trees() {
			mr := NewMatcher(d, lib, f.Father, inTree(tr))
			for _, g := range tr.Gates {
				for _, mt := range mr.MatchesAt(g) {
					matches++
					pat := mt.Cell.Patterns[mt.PatternIndex]
					vars := pat.Vars()
					if len(vars) != len(mt.Leaves) {
						t.Fatalf("trial %d: %s leaves/vars mismatch: %d vs %d",
							trial, mt.Cell.Name, len(mt.Leaves), len(vars))
					}
					assign := map[string]bool{}
					for m := range vals {
						for i, v := range vars {
							assign[v] = vals[m][mt.Leaves[i]]
						}
						if pat.Eval(assign) != vals[m][mt.Root] {
							t.Fatalf("trial %d: %s at gate %d is not function-compatible (minterm %d)",
								trial, mt.Cell.Name, g, m)
						}
					}
				}
			}
		}
	}
	if matches < 100 {
		t.Errorf("only %d matches exercised; generator too weak", matches)
	}
}

// TestMatchCoveredSetIsConsistentRandom: structural sanity of every
// reported match — the root leads the covered list, covered gates are
// tree members and unique, and leaves are never covered.
func TestMatchCoveredSetIsConsistentRandom(t *testing.T) {
	t.Parallel()
	lib := library.Default()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		d := randomDAG(t, rng, 2+rng.Intn(5), 1, 2+rng.Intn(6))
		f, err := partition.Partition(partition.Input{DAG: d}, partition.Dagon)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range f.Trees() {
			inTree := inTree(tr)
			mr := NewMatcher(d, lib, f.Father, inTree)
			for _, g := range tr.Gates {
				for _, mt := range mr.MatchesAt(g) {
					if len(mt.Covered) == 0 || mt.Covered[0] != mt.Root || mt.Root != g {
						t.Fatalf("trial %d: %s covered list malformed: %+v", trial, mt.Cell.Name, mt)
					}
					seen := map[int]bool{}
					for _, c := range mt.Covered {
						if seen[c] {
							t.Fatalf("trial %d: %s covers gate %d twice", trial, mt.Cell.Name, c)
						}
						seen[c] = true
						if !inTree(c) {
							t.Fatalf("trial %d: %s covers gate %d outside the tree", trial, mt.Cell.Name, c)
						}
					}
					for _, l := range mt.Leaves {
						if seen[l] {
							t.Fatalf("trial %d: %s gate %d is both leaf and covered", trial, mt.Cell.Name, l)
						}
					}
				}
			}
		}
	}
}
