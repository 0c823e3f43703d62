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
	if f.InflatedCells() != 0 || f.MaxMult() != 1 {
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
	if f.InflatedCells() != 1 || f.MaxMult() != 7 {
		t.Error("inflation not reflected in InflatedCells/MaxMult")
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
		// The classic cover must also carry the WireCostW invariant:
		// under the uniform field the weighted term a parent's WIRE2
		// reads is the unweighted one.
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

// TestCoverDeltaValidation pins the delta contract: a nil field is the
// uniform one on the delta path too, and a malformed tree or gate mask,
// a missing gate mask or a missing previous cover is an error.
func TestCoverDeltaValidation(t *testing.T) {
	t.Parallel()
	d, forest, prefix, _, _ := benchPrefix(t)
	opts := Options{K: 1}
	base, err := CoverWithPrefix(context.Background(), d, forest, prefix, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Re-cover every other tree under the nil field, re-solving every
	// gate of it: the clean half copies base, the dirty half recomputes
	// it.
	dirty := make([]bool, len(prefix.trees))
	for ti := range dirty {
		dirty[ti] = ti%2 == 0
	}
	all := make([]bool, d.NumGates())
	for i := range all {
		all[i] = true
	}
	drec, frec := obs.New(), obs.New()
	delta, err := CoverDelta(obs.WithRecorder(context.Background(), drec), d, forest, prefix, base, opts, dirty, all)
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
	if _, err := CoverDelta(context.Background(), d, forest, prefix, base, opts, dirty[:1], all); err == nil {
		t.Error("dirty length mismatch must error")
	}
	if _, err := CoverDelta(context.Background(), d, forest, prefix, base, opts, dirty, all[:1]); err == nil {
		t.Error("gate mask length mismatch must error")
	}
	if _, err := CoverDelta(context.Background(), d, forest, prefix, base, opts, dirty, nil); err == nil {
		t.Error("nil gate mask must error")
	}
	if _, err := CoverDelta(context.Background(), d, forest, prefix, nil, opts, dirty, all); err == nil {
		t.Error("nil previous cover must error")
	}
}
