package place

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPerm checks that perm yields rng.Perm's permutation and leaves
// the generator in the same state.
func TestPerm(t *testing.T) {
	t.Parallel()
	var buf []int
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		a, b := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		want := a.Perm(n)
		buf = perm(b, grow(buf, n))
		if !slices.Equal(buf, want) {
			t.Fatalf("n=%d: perm %v, rng.Perm %v", n, buf, want)
		}
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("n=%d: generator states differ after the permutation", n)
		}
	}
}

// fillFMProblem refills p with a seeded random instance of n cells:
// 2–4 pin nets, some with external terminals and repeated cells. hub
// adds a cell on 3n/4 two-pin nets, which raises the maximum degree
// and so the bucket count.
func fillFMProblem(p *fmProblem, n int, hub bool, rng *rand.Rand) {
	p.width = grow(p.width, n)
	total := 0.0
	for i := range p.width {
		p.width[i] = float64(1 + rng.Intn(3))
		total += p.width[i]
	}
	p.targetLo, p.targetHi = total*0.4, total*0.6
	p.nets = p.nets[:0]
	for k := 0; k < 2*n; k++ {
		f := fmNet{extA: rng.Intn(3) / 2, extB: rng.Intn(3) / 2}
		a := rng.Intn(n)
		f.cells = append(f.cells, int32(a))
		for j := 1 + rng.Intn(3); j > 0; j-- {
			f.cells = append(f.cells, int32((a+rng.Intn(12))%n))
		}
		p.nets = append(p.nets, f)
	}
	if hub {
		for k := 0; k < 3*n/4; k++ {
			p.nets = append(p.nets, fmNet{cells: []int32{0, int32(1 + rng.Intn(n-1))}})
		}
	}
	p.linkCells()
}

// TestFMScratchReuse runs one scratch and one refilled problem over
// instances that grow, shrink and gain a high-degree cell, and checks
// each result against a fresh problem and scratch.
func TestFMScratchReuse(t *testing.T) {
	t.Parallel()
	var shared fmProblem
	var scratch fmScratch
	steps := []struct {
		n   int
		hub bool
	}{{200, false}, {60, false}, {400, false}, {300, true}, {40, false}, {500, false}, {120, true}, {8, false}}
	for si, st := range steps {
		seed := int64(100 + si)
		fresh := &fmProblem{}
		fillFMProblem(fresh, st.n, st.hub, rand.New(rand.NewSource(seed)))
		fillFMProblem(&shared, st.n, st.hub, rand.New(rand.NewSource(seed)))
		initial := make([]bool, st.n)
		acc, half := 0.0, (fresh.targetLo+fresh.targetHi)/2
		for i := range initial {
			initial[i] = acc >= half
			acc += fresh.width[i]
		}
		sideFresh := slices.Clone(initial)
		sideReused := slices.Clone(initial)
		want := runFM(fresh, sideFresh, 6, rand.New(rand.NewSource(seed)), new(fmScratch))
		got := runFM(&shared, sideReused, 6, rand.New(rand.NewSource(seed)), &scratch)
		if got.cutNets != want.cutNets || !slices.Equal(sideReused, sideFresh) {
			t.Fatalf("step %d (n=%d hub=%v): reused scratch gives cut %d, fresh gives %d (sides equal: %v)",
				si, st.n, st.hub, got.cutNets, want.cutNets, slices.Equal(sideReused, sideFresh))
		}
		if slices.Equal(sideFresh, initial) {
			t.Errorf("step %d: FM moved no cell, so the comparison is vacuous", si)
		}
	}
}
