package place

import (
	"math/rand"
	"sort"
	"testing"

	"casyn/internal/geom"
)

func TestNth(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	random := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		return xs
	}
	inputs := map[string][]float64{
		"len1":       {3.5},
		"len2":       {2, -1},
		"len2 equal": {4, 4},
		"len65":      random(65),
		"duplicates": func() []float64 {
			xs := make([]float64, 65)
			for i := range xs {
				xs[i] = float64(rng.Intn(3))
			}
			return xs
		}(),
		"all equal": {7, 7, 7, 7, 7, 7, 7},
		"sorted": func() []float64 {
			xs := random(65)
			sort.Float64s(xs)
			return xs
		}(),
		"reverse": func() []float64 {
			xs := random(65)
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
			return xs
		}(),
		"negatives": {-3, -1.5, -8, -2, -1.5, -9.25, -4},
	}
	for name, in := range inputs {
		want := append([]float64(nil), in...)
		sort.Float64s(want)
		for k := range in {
			xs := append([]float64(nil), in...)
			if got := nth(xs, k); got != want[k] {
				t.Errorf("%s: nth(k=%d) = %g, want %g", name, k, got, want[k])
			}
		}
	}
}

// TestHPWLCacheExact drives the cache through random tried, committed
// and rejected moves on the fingerprint netlist and checks, after each
// one, that every cached HPWL and every before/after sum is
// bit-identical to a from-scratch NetHPWL evaluation.
func TestHPWLCacheExact(t *testing.T) {
	t.Parallel()
	layout, _ := LayoutWithRows(24, 260, 6.656)
	nl := fingerprintNetlist(layout)
	n := nl.NumCells()
	rng := rand.New(rand.NewSource(9))
	p := &Placement{Pos: make([]geom.Point, n), Row: make([]int, n)}
	for c := range p.Pos {
		// A coarse grid makes pins share box edges often.
		p.Pos[c] = geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(20)))
	}
	cellNets := nl.cellNets()
	scratch := func(a, b int) float64 {
		t := 0.0
		for _, ni := range cellNets[a] {
			t += nl.NetHPWL(p, int(ni))
		}
		for _, ni := range cellNets[b] {
			dup := false
			for _, mi := range cellNets[a] {
				dup = dup || mi == ni
			}
			if !dup {
				t += nl.NetHPWL(p, int(ni))
			}
		}
		return t
	}
	cache := newHPWLCache(nl, p)
	for step := 0; step < 20000; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		oldA, oldB := p.Pos[a], p.Pos[b]
		wantBefore := scratch(a, b)
		if rng.Intn(2) == 0 {
			p.Pos[a], p.Pos[b] = oldB, oldA
		} else {
			p.Pos[a] = geom.Pt(float64(rng.Intn(40)), oldA.Y)
			p.Pos[b] = geom.Pt(float64(rng.Intn(40)), oldB.Y)
		}
		before, after := cache.try(a, b, oldA, oldB, cellNets[a], cellNets[b])
		if wantAfter := scratch(a, b); before != wantBefore || after != wantAfter {
			t.Fatalf("step %d: cache (%v, %v), scratch (%v, %v)", step, before, after, wantBefore, wantAfter)
		}
		if rng.Intn(2) == 0 {
			cache.commit()
		} else {
			p.Pos[a], p.Pos[b] = oldA, oldB
		}
	}
	for ni := range nl.Nets {
		if got, want := cache.hp[ni], nl.NetHPWL(p, ni); got != want {
			t.Fatalf("net %d: cached HPWL %v, scratch %v", ni, got, want)
		}
	}
}
