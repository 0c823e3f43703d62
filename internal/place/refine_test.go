package place

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"casyn/internal/geom"
)

// nth returns the k-th smallest element of xs — xs[k] of sorted order —
// reordering xs in place. It is a quickselect with median-of-three
// pivots and three-way partitioning, so duplicate-heavy inputs stay
// linear. With gatherTarget it is refine's median as computed before
// medianIndex, kept as the index's oracle.
func nth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		pivot := max(a, b)
		// [lo,lt) < pivot, [lt,gt] == pivot, (gt,hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				xs[i], xs[gt] = xs[gt], x
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// gatherTarget is the median of the other pins of cell c's nets of at
// most 64 pins, gathered listing by listing and selected with nth: the
// reference medianIndex.target must match bit for bit.
func gatherTarget(nl *Netlist, p *Placement, cellNets [][]int32, c int) (geom.Point, bool) {
	var xs, ys []float64
	for _, ni := range cellNets[c] {
		net := &nl.Nets[ni]
		if len(net.Cells)+len(net.Pads) > 64 {
			continue
		}
		for _, oc := range net.Cells {
			if oc != c {
				xs = append(xs, p.Pos[oc].X)
				ys = append(ys, p.Pos[oc].Y)
			}
		}
		for _, pad := range net.Pads {
			xs = append(xs, pad.X)
			ys = append(ys, pad.Y)
		}
	}
	if len(xs) == 0 {
		return geom.Point{}, false
	}
	return geom.Pt(nth(xs, len(xs)/2), nth(ys, len(ys)/2)), true
}

// TestRefineMedianMatchesGather drives a medianIndex through thousands
// of random committed moves — position exchanges, as in an equal-width
// swap, and slides along the row, as in an adjacent-pair swap — and
// checks after each one that every cell's target is gatherTarget's,
// bit for bit. The netlist has cells listed two and three times on
// one net, nets of exactly 64 and 65 pins, pad-only nets, one cell
// plus pads, a net of one cell listed twice and zero-width cells;
// positions sit on a coarse grid, so a cell's own coordinate often
// ties other pins'.
func TestRefineMedianMatchesGather(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(37))
	const n = 120
	nl := &Netlist{Widths: make([]float64, n)}
	for c := range nl.Widths {
		if c%11 != 0 {
			nl.Widths[c] = 1.5
		}
	}
	pad := func() geom.Point { return geom.Pt(float64(rng.Intn(30)), float64(rng.Intn(2)*20)) }
	cells := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = rng.Intn(n)
		}
		return out
	}
	for i := 0; i < 2*n; i++ {
		nl.Nets = append(nl.Nets, Net{Cells: cells(2 + rng.Intn(4))})
	}
	nl.Nets = append(nl.Nets,
		Net{Cells: []int{3, 3, 8, 9}},                             // cell 3 listed twice
		Net{Cells: []int{5, 12, 5, 5}, Pads: []geom.Point{pad()}}, // cell 5 three times
		Net{Cells: []int{7, 7}},                                   // nothing but cell 7
		Net{Cells: []int{20}, Pads: []geom.Point{pad(), pad()}},
		Net{Cells: []int{21}, Pads: []geom.Point{pad()}},
		Net{Pads: []geom.Point{pad(), pad(), pad()}},
		Net{Cells: cells(62), Pads: []geom.Point{pad(), pad()}}, // 64 pins: steers
		Net{Cells: cells(65)},                                   // 65 pins: a hub
		Net{Cells: append(cells(63), 30, 30)},                   // 65 pins with a repeat
	)
	p := &Placement{Pos: make([]geom.Point, n), Row: make([]int, n)}
	for c := range p.Pos {
		p.Pos[c] = geom.Pt(float64(rng.Intn(30)), float64(rng.Intn(8))*2.5)
	}
	cellNets := nl.cellNets()
	med := newMedianIndex(nl, p)
	check := func(step int) {
		for c := 0; c < n; c++ {
			got, gotOK := med.target(p.Pos[c], cellNets[c])
			want, wantOK := gatherTarget(nl, p, cellNets, c)
			if gotOK != wantOK || math.Float64bits(got.X) != math.Float64bits(want.X) ||
				math.Float64bits(got.Y) != math.Float64bits(want.Y) {
				t.Fatalf("step %d, cell %d: index (%v, %v), gather (%v, %v)", step, c, got, gotOK, want, wantOK)
			}
		}
	}
	check(-1)
	for step := 0; step < 2000; step++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		oldA, oldB := p.Pos[a], p.Pos[b]
		if rng.Intn(2) == 0 {
			p.Pos[a], p.Pos[b] = oldB, oldA
		} else {
			p.Pos[a] = geom.Pt(float64(rng.Intn(30)), oldA.Y)
			p.Pos[b] = geom.Pt(float64(rng.Intn(30)), oldB.Y)
		}
		med.move(oldA, p.Pos[a], cellNets[a])
		med.move(oldB, p.Pos[b], cellNets[b])
		check(step)
	}
}

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

// scanResidue is the classmate search classIndex replaces: a linear
// scan of class positions o, o+step, … for the cell nearest tgt, ties
// to the first, skipping self.
func scanResidue(cl []int32, o, step, self int, at []geom.Point, tgt geom.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i := o; i < len(cl); i += step {
		d := int(cl[i])
		if d == self {
			continue
		}
		if dist := tgt.Manhattan(at[d]); dist < bestD {
			best, bestD = d, dist
		}
	}
	return best, bestD
}

// TestClassIndexExact drives a classIndex through random queries and
// committed moves and checks every answer against scanResidue: the
// same cell and the same distance bits. Classes range from one member
// to five residue sets; positions sit on a coarse grid, so x values
// repeat and distance ties are common.
func TestClassIndexExact(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(15))
	sizes := []int{1, 1, 2, 37, 512, 700, 1100, 2700}
	total := 0
	for _, s := range sizes {
		total += s
	}
	// Deal the cells to classes in a random order, so each class list
	// is ascending but not contiguous.
	var classes [][]int32
	for k, s := range sizes {
		classes = append(classes, nil)
		for j := 0; j < s; j++ {
			classes[k] = append(classes[k], -1)
		}
	}
	deal := rng.Perm(total)
	class := make([]int, total)
	next := 0
	for k, s := range sizes {
		for j := 0; j < s; j++ {
			class[deal[next]] = k
			next++
		}
	}
	fill := make([]int, len(sizes))
	for c := 0; c < total; c++ {
		k := class[c]
		classes[k][fill[k]] = int32(c)
		fill[k]++
	}
	grid := func() geom.Point { return geom.Pt(float64(rng.Intn(60))*0.5, float64(rng.Intn(12))*1.5) }
	at := make([]geom.Point, total)
	for c := range at {
		at[c] = grid()
	}
	ix := newClassIndex(classes, at)
	steps := map[int]bool{}
	ties, selfHits, empty := 0, 0, 0
	for q := 0; q < 60000; q++ {
		c := rng.Intn(total)
		k := class[c]
		cl := classes[k]
		step := ix.step[k]
		steps[step] = true
		o := rng.Intn(step)
		tgt := grid()
		if rng.Intn(4) == 0 {
			tgt = at[c] // the cell itself is at distance 0
		}
		got, gotD := ix.nearest(int32(k), o, c, tgt)
		want, wantD := scanResidue(cl, o, step, c, at, tgt)
		if got != want || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("query %d (class size %d, step %d, o %d): index (%d, %v), scan (%d, %v)",
				q, len(cl), step, o, got, gotD, want, wantD)
		}
		if want < 0 {
			empty++
		} else {
			if tgt == at[c] && wantD > 0 {
				selfHits++
			}
			n := 0
			for i := o; i < len(cl); i += step {
				if int(cl[i]) != c && tgt.Manhattan(at[cl[i]]) == wantD {
					n++
				}
			}
			if n > 1 {
				ties++
			}
		}
		// Commit a move: an equal-width swap, or a cell sliding along
		// its row as in an adjacent-pair swap.
		switch rng.Intn(3) {
		case 0:
			d := int(cl[rng.Intn(len(cl))])
			at[c], at[d] = at[d], at[c]
			ix.move(c, at[c])
			ix.move(d, at[d])
		case 1:
			at[c] = geom.Pt(float64(rng.Intn(60))*0.5, at[c].Y)
			ix.move(c, at[c])
		}
	}
	for _, s := range []int{1, 2, 5} {
		if !steps[s] {
			t.Errorf("no class with step %d was queried", s)
		}
	}
	if ties == 0 || selfHits == 0 || empty == 0 {
		t.Errorf("coverage: %d tied queries, %d self-excluded, %d with no classmate; want all > 0", ties, selfHits, empty)
	}
	// The index still mirrors the committed positions, sorted by x.
	for s := 0; s+1 < len(ix.start); s++ {
		for i := ix.start[s]; i < ix.start[s+1]; i++ {
			e := ix.ents[i]
			if e.x != at[e.cell].X || e.y != at[e.cell].Y || ix.slot[e.cell] != i {
				t.Fatalf("entry %d: cell %d at (%v, %v), slot %d; committed %v", i, e.cell, e.x, e.y, ix.slot[e.cell], at[e.cell])
			}
			if i > ix.start[s] && ix.ents[i-1].x > e.x {
				t.Fatalf("set %d unsorted at entry %d", s, i)
			}
		}
	}
}
