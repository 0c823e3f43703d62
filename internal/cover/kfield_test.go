package cover

import (
	"context"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/obs"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

func TestKFieldGeometry(t *testing.T) {
	t.Parallel()
	f, err := NewKField(geom.Pt(10, 20), 5, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Uniform() || f.InflatedCells() != 0 || f.MaxMult() != 1 {
		t.Fatal("fresh field must be uniform")
	}
	// Clamping: points outside the die land on border cells.
	for _, tc := range []struct {
		p    geom.Point
		x, y int
	}{
		{geom.Pt(10, 20), 0, 0},
		{geom.Pt(12, 27), 0, 1},
		{geom.Pt(-100, -100), 0, 0},
		{geom.Pt(1e6, 1e6), 3, 2},
		{geom.Pt(29.9, 31.9), 3, 2},
	} {
		if x, y := f.CellOf(tc.p); x != tc.x || y != tc.y {
			t.Errorf("CellOf(%v) = (%d,%d), want (%d,%d)", tc.p, x, y, tc.x, tc.y)
		}
	}
	// SpanMult takes the max over both endpoints and the midpoint.
	f.Mult[1*4+1] = 7 // cell (1,1): x in [15,20), y in [24,28)
	a, b := geom.Pt(11, 21), geom.Pt(27, 31)
	// Midpoint (19, 26) is inside the inflated cell; neither endpoint is.
	if got := f.SpanMult(a, b); got != 7 {
		t.Errorf("SpanMult via midpoint = %g, want 7", got)
	}
	if got := f.MultAt(a); got != 1 {
		t.Errorf("MultAt(a) = %g, want 1", got)
	}
	if f.Uniform() || f.InflatedCells() != 1 || f.MaxMult() != 7 {
		t.Error("inflation not reflected in Uniform/InflatedCells/MaxMult")
	}
	// Clone is deep.
	c := f.Clone()
	c.Mult[0] = 3
	if f.Mult[0] != 1 {
		t.Error("Clone shares Mult storage")
	}
	if _, err := NewKField(geom.Pt(0, 0), 0, 1, 4, 4); err == nil {
		t.Error("degenerate cell size must error")
	}
	if _, err := NewKField(geom.Pt(0, 0), 1, 1, 0, 4); err == nil {
		t.Error("degenerate dimensions must error")
	}
}

// benchPrefix builds a realistic prefix: a scaled benchmark circuit
// with deterministic pseudo-random positions over a die.
func benchPrefix(t *testing.T) (*subject.DAG, *partition.Forest, *Prefix, []geom.Point, geom.Rect) {
	t.Helper()
	p, err := bench.Generate(bench.SPLA.ScaledSpec(0.04))
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		t.Fatal(err)
	}
	die := geom.R(0, 0, 200, 160)
	pos := make([]geom.Point, d.NumGates())
	rng := uint64(1)
	next := func() float64 {
		// xorshift64: deterministic positions, no test-order coupling.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%10000) / 10000
	}
	for i := range pos {
		pos[i] = geom.Pt(die.Min.X+next()*die.W(), die.Min.Y+next()*die.H())
	}
	forest, err := partition.Partition(partition.Input{DAG: d, Pos: pos}, partition.Dagon)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := BuildPrefix(context.Background(), d, forest, library.Default(), pos, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, forest, prefix, pos, die
}

// sameCover asserts two covering results are bitwise identical:
// every solution's numeric fields, selected cells, committed
// positions, and root reductions.
func sameCover(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if len(a.Best) != len(b.Best) || len(a.Pos) != len(b.Pos) {
		t.Fatalf("%s: result shapes differ", tag)
	}
	for v := range a.Best {
		sa, sb := a.Best[v], b.Best[v]
		if (sa == nil) != (sb == nil) {
			t.Fatalf("%s: gate %d solution presence differs", tag, v)
		}
		if sa == nil {
			continue
		}
		if sa.Match.Cell != sb.Match.Cell {
			t.Fatalf("%s: gate %d selected %s vs %s", tag, v, sa.Match.Cell.Name, sb.Match.Cell.Name)
		}
		if sa.AreaCost != sb.AreaCost || sa.WireCost != sb.WireCost ||
			sa.WireCostW != sb.WireCostW || sa.Wire != sb.Wire ||
			sa.Pos != sb.Pos {
			t.Fatalf("%s: gate %d solutions diverge:\n%+v\n%+v", tag, v, sa, sb)
		}
	}
	for v := range a.Pos {
		if a.Pos[v] != b.Pos[v] {
			t.Fatalf("%s: committed position of gate %d differs", tag, v)
		}
	}
	if a.RootArea != b.RootArea || a.RootWire != b.RootWire {
		t.Fatalf("%s: root reductions differ: (%v,%v) vs (%v,%v)",
			tag, a.RootArea, a.RootWire, b.RootArea, b.RootWire)
	}
}

// TestUniformFieldBitIdentity is the covering half of the uniform-
// field reduction proof: for every K, CoverWithPrefix under a uniform
// K-field must equal the classic nil-field cover bit for bit —
// multiplying by exactly 1.0 is exact in IEEE 754 and the weighted
// accumulation runs in the classic order.
func TestUniformFieldBitIdentity(t *testing.T) {
	t.Parallel()
	d, forest, prefix, _, die := benchPrefix(t)
	field, err := NewKField(die.Min, die.W()/16, die.H()/16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{0, 0.5, 1, 2} {
		classic, err := CoverWithPrefix(context.Background(), d, forest, prefix, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		uniform, err := CoverWithPrefix(context.Background(), d, forest, prefix, Options{K: k, KField: field})
		if err != nil {
			t.Fatal(err)
		}
		sameCover(t, "uniform", classic, uniform)
		// The classic cover must also carry the WireCostW invariant so
		// field deltas can chain off it.
		for v, sol := range classic.Best {
			if sol != nil && sol.WireCostW != sol.WireCost {
				t.Fatalf("classic cover gate %d: WireCostW %v != WireCost %v",
					v, sol.WireCostW, sol.WireCost)
			}
		}
	}
}

// TestNonUniformFieldChangesCover: inflating the field where the wire
// runs must be able to flip a selection toward less wire, exactly as a
// globally larger K would — the field is a lever, not a no-op.
func TestNonUniformFieldChangesCover(t *testing.T) {
	t.Parallel()
	d, forest, prefix, _, die := benchPrefix(t)
	const k = 0.001
	classic, err := CoverWithPrefix(context.Background(), d, forest, prefix, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the entire die hard: every wire term now costs 1000× K,
	// the equivalent of the top of the paper ladder.
	field, err := NewKField(die.Min, die.W()/16, die.H()/16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range field.Mult {
		field.Mult[i] = 1000
	}
	weighted, err := CoverWithPrefix(context.Background(), d, forest, prefix, Options{K: k, KField: field})
	if err != nil {
		t.Fatal(err)
	}
	if weighted.RootWire >= classic.RootWire {
		t.Errorf("inflated field did not reduce wire: %g vs classic %g",
			weighted.RootWire, classic.RootWire)
	}
	if weighted.RootArea <= classic.RootArea {
		t.Errorf("wire reduction came free: area %g vs classic %g (expected a trade)",
			weighted.RootArea, classic.RootArea)
	}
}

// TestTreeTerritoryContainsReads: every position a tree's DP can read
// (members, their fanins) lies inside its territory box.
func TestTreeTerritoryContainsReads(t *testing.T) {
	t.Parallel()
	d, _, prefix, pos, _ := benchPrefix(t)
	terr := prefix.TreeTerritories()
	if len(terr) != prefix.NumTrees() {
		t.Fatalf("%d territories for %d trees", len(terr), prefix.NumTrees())
	}
	for ti := range prefix.trees {
		r := terr[ti]
		for _, v := range prefix.trees[ti].Gates {
			if !r.Contains(pos[v]) {
				t.Fatalf("tree %d: member %d at %v outside territory %v", ti, v, pos[v], r)
			}
			for _, l := range d.Fanins(v) {
				if !r.Contains(pos[l]) {
					t.Fatalf("tree %d: fanin %d at %v outside territory %v", ti, l, pos[l], r)
				}
			}
		}
	}
}

// TestCoverDeltaField: re-covering only the territory-dirty trees
// after a field inflation must be byte-identical to a full cover under
// the new field — chained twice to cover the delta-off-delta path.
func TestCoverDeltaField(t *testing.T) {
	t.Parallel()
	d, forest, prefix, _, die := benchPrefix(t)
	const k = 0.001
	opts := Options{K: k}
	base, err := CoverWithPrefix(context.Background(), d, forest, prefix, opts)
	if err != nil {
		t.Fatal(err)
	}
	terr := prefix.TreeTerritories()

	// Step 1: inflate a 2×2 window in the middle of the die.
	field, err := NewKField(die.Min, die.W()/16, die.H()/16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	changed := make([]bool, len(field.Mult))
	for _, i := range []int{8*16 + 8, 8*16 + 9, 9*16 + 8, 9*16 + 9} {
		field.Mult[i] = 50
		changed[i] = true
	}
	dirty := cover1(t, terr, field, changed)
	fopts := opts
	fopts.KField = field
	full, err := CoverWithPrefix(context.Background(), d, forest, prefix, fopts)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := CoverDelta(context.Background(), d, forest, prefix, base, fopts, dirty)
	if err != nil {
		t.Fatal(err)
	}
	sameCover(t, "delta-1", full, delta)

	// Step 2: inflate a second, disjoint window; delta chains off the
	// previous delta result.
	field2 := field.Clone()
	changed2 := make([]bool, len(field2.Mult))
	for _, i := range []int{2*16 + 2, 2*16 + 3} {
		field2.Mult[i] = 20
		changed2[i] = true
	}
	dirty2 := cover1(t, terr, field2, changed2)
	fopts2 := opts
	fopts2.KField = field2
	full2, err := CoverWithPrefix(context.Background(), d, forest, prefix, fopts2)
	if err != nil {
		t.Fatal(err)
	}
	delta2, err := CoverDelta(context.Background(), d, forest, prefix, delta, fopts2, dirty2)
	if err != nil {
		t.Fatal(err)
	}
	sameCover(t, "delta-2", full2, delta2)
}

// cover1 wraps DirtyTreesForField, failing the test if the
// classification is degenerate in either direction (all clean would
// make the equivalence vacuous, all dirty would not exercise reuse).
func cover1(t *testing.T, terr []geom.Rect, f *KField, changed []bool) []bool {
	t.Helper()
	dirty := DirtyTreesForField(terr, f, changed)
	nd := 0
	for _, d := range dirty {
		if d {
			nd++
		}
	}
	if nd == 0 {
		t.Fatal("no dirty trees: inflation missed every territory")
	}
	if nd == len(dirty) {
		t.Log("warning: every tree dirty (no reuse exercised)")
	}
	return dirty
}

// TestCoverDeltaValidation pins the delta contract: a nil field is the
// uniform one on the delta path too, and a malformed mask or a missing
// previous cover is an error.
func TestCoverDeltaValidation(t *testing.T) {
	t.Parallel()
	d, forest, prefix, _, _ := benchPrefix(t)
	opts := Options{K: 1}
	base, err := CoverWithPrefix(context.Background(), d, forest, prefix, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Re-cover every other tree under the nil field: the clean half
	// copies base, the dirty half recomputes it.
	dirty := make([]bool, prefix.NumTrees())
	for ti := range dirty {
		dirty[ti] = ti%2 == 0
	}
	drec, frec := obs.New(), obs.New()
	delta, err := CoverDelta(obs.WithRecorder(context.Background(), drec), d, forest, prefix, base, opts, dirty)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CoverWithPrefix(obs.WithRecorder(context.Background(), frec), d, forest, prefix, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameCover(t, "nil-field delta", full, delta)
	// Only a delta records reuse: every odd-indexed tree was copied.
	if got, want := drec.Snapshot().Counters["cover.reused_trees"], int64(len(dirty)/2); got != want {
		t.Errorf("delta cover.reused_trees = %d, want %d", got, want)
	}
	if _, ok := frec.Snapshot().Counters["cover.reused_trees"]; ok {
		t.Error("a full cover recorded cover.reused_trees")
	}
	if _, err := CoverDelta(context.Background(), d, forest, prefix, base, opts, dirty[:1]); err == nil {
		t.Error("dirty length mismatch must error")
	}
	if _, err := CoverDelta(context.Background(), d, forest, prefix, nil, opts, dirty); err == nil {
		t.Error("nil previous cover must error")
	}
}
