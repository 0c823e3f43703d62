package mapper

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/obs"
	"casyn/internal/subject"
)

// SharesMatches reports whether the successor shares gate g's cached
// match slice with its parent (pointer identity): the probe for the
// copy-on-write contract.
func (e *ECO) SharesMatches(g int) bool {
	return cover.SharesMatches(e.parent.prefix, e.Prep.prefix, g)
}

// exampleCircuits globs the example PLA suite the ECO properties run
// over.
func exampleCircuits(t *testing.T) []string {
	t.Helper()
	plas, err := filepath.Glob("../../examples/circuits/*.pla")
	if err != nil || len(plas) == 0 {
		t.Fatalf("no example circuits found: %v", err)
	}
	return plas
}

// TestMapECOMatchesFresh is the incremental-mapping determinism
// property: on every example circuit, applying a random edit set via
// Invalidate + MapECO (and a full MapStateful cover of the successor)
// is byte-identical to a from-scratch Prepare + MapStateful
// of the edited design in the same placement context — including when
// a second edit set chains off the first ECO.
func TestMapECOMatchesFresh(t *testing.T) {
	t.Parallel()
	for _, pla := range exampleCircuits(t) {
		pla := pla
		t.Run(strings.TrimSuffix(filepath.Base(pla), ".pla"), func(t *testing.T) {
			t.Parallel()
			d, in := placedCircuit(t, pla)
			ctx := context.Background()
			lib := library.Default()
			prep, err := Prepare(ctx, d, in, Options{Lib: lib})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []float64{0, 1} {
				for seed := int64(1); seed <= 2; seed++ {
					rng := rand.New(rand.NewSource(seed))
					base, cov, err := MapStateful(ctx, prep, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					direct, _, err := MapStateful(ctx, prep, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					if resultKey(base) != resultKey(direct) {
						t.Fatalf("K=%g: MapStateful is not repeatable", k)
					}

					edits := RandomEdits(prep, rng, 4)
					if len(edits.Edits) == 0 {
						t.Fatal("RandomEdits returned an empty set")
					}
					eco, err := prep.Invalidate(ctx, edits)
					if err != nil {
						t.Fatalf("K=%g seed=%d: Invalidate: %v", k, seed, err)
					}
					inc, incCov, err := MapECO(ctx, eco, cov, k)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := Prepare(ctx, eco.Prep.DAG(),
						Input{Pos: eco.Prep.Pos(), POPads: eco.Prep.POPads()}, Options{Lib: lib})
					if err != nil {
						t.Fatal(err)
					}
					refRes, _, err := MapStateful(ctx, ref, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					if resultKey(inc) != resultKey(refRes) {
						t.Errorf("K=%g seed=%d: delta-cover ECO differs from fresh synthesis of the edited design", k, seed)
					}
					full, _, err := MapStateful(ctx, eco.Prep, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					if resultKey(full) != resultKey(refRes) {
						t.Errorf("K=%g seed=%d: full cover of the successor differs from fresh synthesis", k, seed)
					}

					// Chain a second edit set off the successor.
					edits2 := RandomEdits(eco.Prep, rng, 3)
					if len(edits2.Edits) == 0 {
						continue
					}
					eco2, err := eco.Prep.Invalidate(ctx, edits2)
					if err != nil {
						t.Fatalf("K=%g seed=%d: chained Invalidate: %v", k, seed, err)
					}
					inc2, _, err := MapECO(ctx, eco2, incCov, k)
					if err != nil {
						t.Fatal(err)
					}
					ref2, err := Prepare(ctx, eco2.Prep.DAG(),
						Input{Pos: eco2.Prep.Pos(), POPads: eco2.Prep.POPads()}, Options{Lib: lib})
					if err != nil {
						t.Fatal(err)
					}
					ref2Res, _, err := MapStateful(ctx, ref2, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					if resultKey(inc2) != resultKey(ref2Res) {
						t.Errorf("K=%g seed=%d: chained ECO differs from fresh synthesis", k, seed)
					}
				}
			}
		})
	}
}

// TestMapECOUnderField: an ECO off a cover under a non-uniform K-field
// re-covers the dirty trees under that field, so the delta is
// byte-identical to a full cover of the successor under the same field.
func TestMapECOUnderField(t *testing.T) {
	t.Parallel()
	const k = 1
	fieldMatters := 0
	for _, pla := range exampleCircuits(t) {
		name := strings.TrimSuffix(filepath.Base(pla), ".pla")
		d, in := placedCircuit(t, pla)
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		prep, err := Prepare(ctx, d, in, Options{Lib: library.Default()})
		if err != nil {
			t.Fatal(err)
		}
		field := checkerField(t, in.Pos)
		_, fieldCov := mapUnderField(t, ctx, prep, k, field)

		eco, err := prep.Invalidate(ctx, RandomEdits(prep, rand.New(rand.NewSource(3)), 4))
		if err != nil {
			t.Fatalf("%s: Invalidate: %v", name, err)
		}
		inc, incCov, err := MapECO(ctx, eco, fieldCov, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Snapshot().Counters["eco.cover_delta"]; got != 1 {
			t.Fatalf("%s: eco.cover_delta = %d, want the delta path", name, got)
		}
		if incCov.field != field {
			t.Fatalf("%s: the delta's state dropped the parent's field", name)
		}
		ref, _ := mapUnderField(t, ctx, eco.Prep, k, field)
		if resultKey(inc) != resultKey(ref) {
			t.Errorf("%s: ECO under a K-field differs from a full cover of the successor under it", name)
		}
		uniform, _, err := MapStateful(ctx, eco.Prep, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(uniform) != resultKey(ref) {
			fieldMatters++
		}
	}
	if fieldMatters == 0 {
		t.Fatal("the K-field changed no example circuit's cover; the property is vacuous")
	}
}

// TestMapECORefusesForeignCover: a field cover used as prev at another
// K, or from another lineage, is an error — re-covering in full would
// silently drop its K-field — and records no delta cover.
func TestMapECORefusesForeignCover(t *testing.T) {
	t.Parallel()
	const k = 1
	d, in := placedCircuit(t, exampleCircuits(t)[0])
	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	prep, err := Prepare(ctx, d, in, Options{Lib: library.Default()})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Prepare(ctx, d, in, Options{Lib: library.Default()})
	if err != nil {
		t.Fatal(err)
	}
	_, fieldCov := mapUnderField(t, ctx, prep, k, checkerField(t, in.Pos))
	_, foreignCov := mapUnderField(t, ctx, other, k, checkerField(t, in.Pos))
	eco, err := prep.Invalidate(ctx, RandomEdits(prep, rand.New(rand.NewSource(3)), 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := MapECO(ctx, eco, fieldCov, k/2); err == nil {
		t.Error("MapECO accepted a field cover at another K")
	}
	if _, _, err := MapECO(ctx, eco, foreignCov, k); err == nil {
		t.Error("MapECO accepted a field cover of another Prepared")
	}
	if c := rec.Snapshot().Counters; c["eco.cover_delta"] != 0 {
		t.Errorf("refused ECOs counted %d delta covers", c["eco.cover_delta"])
	}
}

// TestMapECORefusesNilCover: an ECO without the parent's cover state is
// an error, not a full cover under the uniform field, and covers
// nothing.
func TestMapECORefusesNilCover(t *testing.T) {
	t.Parallel()
	d, in := placedCircuit(t, exampleCircuits(t)[0])
	prep, err := Prepare(context.Background(), d, in, Options{Lib: library.Default()})
	if err != nil {
		t.Fatal(err)
	}
	eco, err := prep.Invalidate(context.Background(), RandomEdits(prep, rand.New(rand.NewSource(3)), 2))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	if _, _, err := MapECO(obs.WithRecorder(context.Background(), rec), eco, nil, 1); err == nil {
		t.Error("MapECO accepted a nil cover state")
	}
	if n := rec.Snapshot().SpanCounts()["map.reconstruct"]; n != 0 {
		t.Errorf("a refused ECO mapped %d netlists", n)
	}
}

// checkerField returns a K-field over the bounding box of pos whose
// 4×4 cells alternate between multipliers 1 and 50.
func checkerField(t *testing.T, pos []geom.Point) *cover.KField {
	t.Helper()
	lo, hi := pos[0], pos[0]
	for _, p := range pos {
		lo = geom.Pt(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y))
		hi = geom.Pt(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y))
	}
	f, err := cover.NewKField(lo, (hi.X-lo.X)/4+1, (hi.Y-lo.Y)/4+1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Mult {
		if (i/4+i%4)%2 == 1 {
			f.Mult[i] = 50
		}
	}
	return f
}

// mapUnderField covers prep under field.
func mapUnderField(t *testing.T, ctx context.Context, prep *Prepared, k float64, field *cover.KField) (*Result, *CoverState) {
	t.Helper()
	res, st, err := MapStateful(ctx, prep, k, field)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// TestInvalidateDirtySetExact is the dirty-set minimality/soundness
// property: Invalidate's per-tree reuse decision must match an
// independent reimplementation of the clean-tree criterion (identical
// membership, no structurally edited member, unchanged father
// pointers, no member or member-fanin moved), and every clean tree
// must share its members' match slices with the parent by pointer
// identity (copy-on-write, no reallocation). The whole property runs
// under 8 concurrent readers mapping against the parent, so -race
// additionally proves Invalidate never writes the shared Prepared.
func TestInvalidateDirtySetExact(t *testing.T) {
	t.Parallel()
	for _, pla := range exampleCircuits(t) {
		pla := pla
		t.Run(strings.TrimSuffix(filepath.Base(pla), ".pla"), func(t *testing.T) {
			t.Parallel()
			d, in := placedCircuit(t, pla)
			ctx := context.Background()
			lib := library.Default()
			prep, err := Prepare(ctx, d, in, Options{Lib: lib})
			if err != nil {
				t.Fatal(err)
			}
			baseRes, _, err := MapStateful(ctx, prep, 0.5, nil)
			if err != nil {
				t.Fatal(err)
			}
			baseKey := resultKey(baseRes)

			// 8 concurrent readers of the parent Prepared.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan string, 8)
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						res, _, err := MapStateful(ctx, prep, 0.5, nil)
						if err != nil {
							errs <- err.Error()
							return
						}
						if resultKey(res) != baseKey {
							errs <- "concurrent MapStateful result changed during Invalidate"
							return
						}
					}
				}()
			}

			rng := rand.New(rand.NewSource(7))
			for round := 0; round < 4; round++ {
				edits := RandomEdits(prep, rng, 3)
				if len(edits.Edits) == 0 {
					t.Fatal("RandomEdits returned an empty set")
				}
				eco, err := prep.Invalidate(ctx, edits)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				checkDirtySet(t, prep, eco)
			}
			close(stop)
			wg.Wait()
			select {
			case msg := <-errs:
				t.Fatal(msg)
			default:
			}
		})
	}
}

// checkDirtySet verifies one Invalidate outcome against the
// independent clean-tree criterion.
func checkDirtySet(t *testing.T, parent *Prepared, eco *ECO) {
	t.Helper()
	succ := eco.Prep
	oldForest, newForest := parent.forest, succ.forest
	oldRootOf := oldForest.RootOf()
	oldSize := make(map[int]int)
	for _, tr := range oldForest.Trees() {
		oldSize[tr.Root] = len(tr.Gates)
	}
	structEdited := make(map[int]bool)
	for _, g := range eco.EditedGates {
		structEdited[g] = true
	}
	posChanged := make([]bool, succ.dag.NumGates())
	for _, g := range eco.MovedGates {
		posChanged[g] = true
	}
	newTrees := newForest.Trees()
	if len(eco.rebuild.Dirty) != len(newTrees) {
		t.Fatalf("dirty mask has %d entries for %d trees", len(eco.rebuild.Dirty), len(newTrees))
	}
	dirtyRoots := make(map[int]bool)
	for _, r := range eco.DirtyRoots {
		dirtyRoots[r] = true
	}
	reused := 0
	for ti, tr := range newTrees {
		clean := oldSize[tr.Root] == len(tr.Gates)
		for _, v := range tr.Gates {
			if !clean {
				break
			}
			if oldRootOf[v] != tr.Root || structEdited[v] ||
				newForest.Father[v] != oldForest.Father[v] || posChanged[v] {
				clean = false
				break
			}
			g := succ.dag.Gate(v)
			for p := 0; p < g.Type.NumInputs(); p++ {
				if posChanged[g.In[p]] {
					clean = false
					break
				}
			}
		}
		if got := eco.rebuild.Dirty[ti]; got == clean {
			t.Errorf("tree %d (root %d): Dirty=%v, independent criterion says clean=%v", ti, tr.Root, got, clean)
		}
		if clean {
			reused++
			for _, v := range tr.Gates {
				if !eco.SharesMatches(v) {
					t.Errorf("clean tree root %d: gate %d's match slice was reallocated", tr.Root, v)
				}
			}
			if dirtyRoots[tr.Root] {
				t.Errorf("root %d is both reused and listed dirty", tr.Root)
			}
		} else if !dirtyRoots[tr.Root] {
			t.Errorf("dirty tree root %d missing from DirtyRoots", tr.Root)
		}
	}
	if reused != eco.ReusedTrees {
		t.Errorf("ReusedTrees=%d, counted %d", eco.ReusedTrees, reused)
	}
	if eco.Trees != len(newTrees) {
		t.Errorf("Trees=%d, forest has %d", eco.Trees, len(newTrees))
	}
}

// TestInvalidateConeExact is the edit-cone exactness property: after
// every link of a chain of random edit sets, every gate's cached
// matches equal a fresh BuildPrefix of the edited design field by
// field, every clean tree shares its members' slices, and every
// structurally edited tree gate was re-enumerated. Across the suite
// some gate inside a dirty tree must share, or the cone never cut
// anything.
func TestInvalidateConeExact(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	sharedInDirty := 0
	t.Cleanup(func() {
		if !t.Failed() && sharedInDirty == 0 {
			t.Error("no dirty tree shared a single gate's matches; the edit cone is never exercised")
		}
	})
	for _, pla := range exampleCircuits(t) {
		pla := pla
		t.Run(strings.TrimSuffix(filepath.Base(pla), ".pla"), func(t *testing.T) {
			t.Parallel()
			d, in := placedCircuit(t, pla)
			ctx := context.Background()
			lib := library.Default()
			prep, err := Prepare(ctx, d, in, Options{Lib: lib})
			if err != nil {
				t.Fatal(err)
			}
			shared := 0
			for seed := int64(1); seed <= 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cur := prep
				for link := 0; link < 3; link++ {
					edits := RandomEdits(cur, rng, 1+rng.Intn(3))
					eco, err := cur.Invalidate(ctx, edits)
					if err != nil {
						t.Fatalf("seed %d link %d: Invalidate: %v", seed, link, err)
					}
					succ := eco.Prep
					fresh, err := cover.BuildPrefix(ctx, succ.dag, succ.forest, lib, succ.Pos(), 1)
					if err != nil {
						t.Fatal(err)
					}
					rootOf := succ.forest.RootOf()
					inDirty := make([]bool, len(rootOf))
					for ti, tr := range succ.forest.Trees() {
						for _, v := range tr.Gates {
							inDirty[v] = eco.rebuild.Dirty[ti]
							if !inDirty[v] && !eco.SharesMatches(v) {
								t.Errorf("seed %d link %d: clean tree %d: gate %d does not share", seed, link, tr.Root, v)
							}
						}
					}
					for g := range rootOf {
						if err := cover.DiffMatches(succ.prefix, fresh, g); err != nil {
							t.Fatalf("seed %d link %d: %v", seed, link, err)
						}
						if inDirty[g] && eco.SharesMatches(g) {
							shared++
						}
					}
					for _, g := range eco.EditedGates {
						if rootOf[g] >= 0 && eco.SharesMatches(g) {
							t.Errorf("seed %d link %d: edited gate %d shares its matches", seed, link, g)
						}
					}
					cur = succ
				}
			}
			mu.Lock()
			sharedInDirty += shared
			mu.Unlock()
		})
	}
}

// TestMapECORepeatable: MapECO called twice on the same ECO and the
// same previous state takes the delta path both times and returns the
// same result, so dropping the successor's link to its parent did not
// make the lineage check one-shot.
func TestMapECORepeatable(t *testing.T) {
	t.Parallel()
	const k = 0.5
	d, in := placedCircuit(t, exampleCircuits(t)[0])
	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	prep, err := Prepare(ctx, d, in, Options{Lib: library.Default()})
	if err != nil {
		t.Fatal(err)
	}
	_, cov, err := MapStateful(ctx, prep, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	eco, err := prep.Invalidate(ctx, RandomEdits(prep, rand.New(rand.NewSource(11)), 3))
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := MapECO(ctx, eco, cov, k)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := MapECO(ctx, eco, cov, k)
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Counters
	if c["eco.cover_delta"] != 2 {
		t.Fatalf("eco.cover_delta=%d, want 2", c["eco.cover_delta"])
	}
	if resultKey(first) != resultKey(second) {
		t.Error("a repeated MapECO on the same ECO returned a different result")
	}
}

// TestInvalidateZeroMove: a nudge by zero and a swap of two co-located
// gates move nothing, so they dirty no tree and list no moved gate.
func TestInvalidateZeroMove(t *testing.T) {
	t.Parallel()
	d, in := placedCircuit(t, exampleCircuits(t)[0])
	ctx := context.Background()
	var base []int
	for _, g := range d.LiveGates() {
		if tp := d.Gate(g).Type; tp == subject.Nand2 || tp == subject.Inv {
			base = append(base, g)
		}
	}
	a, b := base[0], base[1]
	in.Pos[b] = in.Pos[a]
	prep, err := Prepare(ctx, d, in, Options{Lib: library.Default()})
	if err != nil {
		t.Fatal(err)
	}
	for name, edits := range map[string]EditSet{
		"zero_nudge":      {Edits: []Edit{{Kind: EditNudge, Gate: a}}},
		"co_located_swap": {Edits: []Edit{{Kind: EditSwap, Gate: a, Other: b}}},
	} {
		rec := obs.New()
		eco, err := prep.Invalidate(obs.WithRecorder(ctx, rec), edits)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(eco.DirtyRoots) != 0 || len(eco.MovedGates) != 0 || eco.ReenumeratedGates != 0 {
			t.Errorf("%s: %d dirty trees, moved %v, %d re-enumerated gates; want none",
				name, len(eco.DirtyRoots), eco.MovedGates, eco.ReenumeratedGates)
		}
		if got := rec.Snapshot().Counters["eco.reenumerated_gates"]; got != 0 {
			t.Errorf("%s: eco.reenumerated_gates = %d, want 0", name, got)
		}
		checkDirtySet(t, prep, eco)
	}
}

// TestInvalidateRejectsInvalid checks that malformed edit sets error
// out without touching the shared Prepared.
func TestInvalidateRejectsInvalid(t *testing.T) {
	t.Parallel()
	plas := exampleCircuits(t)
	d, in := placedCircuit(t, plas[0])
	ctx := context.Background()
	lib := library.Default()
	prep, err := Prepare(ctx, d, in, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	baseRes, _, err := MapStateful(ctx, prep, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := resultKey(baseRes)

	live := d.LiveGates()
	var g int
	for _, v := range live {
		if tp := d.Gate(v).Type; tp == subject.Nand2 || tp == subject.Inv {
			g = v
			break
		}
	}
	if g == 0 {
		t.Fatal("no editable base gate in circuit")
	}
	cases := []struct {
		name  string
		edits EditSet
	}{
		{"empty", EditSet{}},
		{"out_of_range", EditSet{Edits: []Edit{{Kind: EditNudge, Gate: d.NumGates() + 5, DX: 1, DY: 1}}}},
		{"negative_gate", EditSet{Edits: []Edit{{Kind: EditNudge, Gate: -1, DX: 1, DY: 1}}}},
		{"pi_target", EditSet{Edits: []Edit{{Kind: EditNudge, Gate: d.PIs()[0], DX: 1, DY: 1}}}},
		{"duplicate_move", EditSet{Edits: []Edit{
			{Kind: EditNudge, Gate: g, DX: 1, DY: 1},
			{Kind: EditNudge, Gate: g, DX: 2, DY: 2}}}},
		{"swap_self", EditSet{Edits: []Edit{{Kind: EditSwap, Gate: g, Other: g}}}},
		{"fanin_not_topological", EditSet{Edits: []Edit{
			{Kind: EditReconnect, Gate: g, Pin: 0, NewFanin: g}}}},
		{"nand_identical_fanins", EditSet{Edits: []Edit{
			{Kind: EditGateFunc, Gate: g, NewType: subject.Nand2, NewIn: [2]int{0, 0}}}}},
		{"nonfinite_nudge", EditSet{Edits: []Edit{
			{Kind: EditNudge, Gate: g, DX: inf(), DY: 0}}}},
	}
	for _, tc := range cases {
		if _, err := prep.Invalidate(ctx, tc.edits); err == nil {
			t.Errorf("%s: Invalidate accepted an invalid edit set", tc.name)
		}
	}
	res, _, err := MapStateful(ctx, prep, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != baseKey {
		t.Fatal("shared Prepared changed after rejected edit sets")
	}
}

func inf() float64 {
	f := 1.0
	for i := 0; i < 2000; i++ {
		f *= 2
	}
	return f
}

// TestCoverDeltaSolutionLevel is the solution-level delta property: on
// every example circuit, over chains of single random edits at K=0 and
// K=1, MapECO's masked CoverDelta equals CoverWithPrefix on the
// successor field by field, and it re-solves exactly the gates the
// marking rule names — re-enumerated, without a previous solution, or
// within MaxPatternHeight father steps above a re-solved gate whose DP
// terms changed — keeping every other previous *Solution.
func TestCoverDeltaSolutionLevel(t *testing.T) {
	t.Parallel()
	lib := library.Default()
	h := lib.MaxPatternHeight()
	var mu sync.Mutex
	reused, resolved := 0, 0
	t.Cleanup(func() {
		if !t.Failed() && (reused == 0 || resolved == 0) {
			t.Errorf("dirty trees reused %d solutions and re-solved %d; want some of each", reused, resolved)
		}
	})
	for _, pla := range exampleCircuits(t) {
		pla := pla
		t.Run(strings.TrimSuffix(filepath.Base(pla), ".pla"), func(t *testing.T) {
			t.Parallel()
			d, in := placedCircuit(t, pla)
			ctx := context.Background()
			for _, k := range []float64{0, 1} {
				prep, err := Prepare(ctx, d, in, Options{Lib: lib})
				if err != nil {
					t.Fatal(err)
				}
				_, st, err := MapStateful(ctx, prep, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(7 + k)))
				for step := 0; step < 12; step++ {
					edits := RandomEdits(prep, rng, 1)
					eco, err := prep.Invalidate(ctx, edits)
					if err != nil {
						t.Fatalf("K=%g step %d: Invalidate: %v", k, step, err)
					}
					_, next, err := MapECO(ctx, eco, st, k)
					if err != nil {
						t.Fatal(err)
					}
					succ := eco.Prep
					full, err := cover.CoverWithPrefix(ctx, succ.dag, succ.forest, succ.prefix, succ.coverOptions(k))
					if err != nil {
						t.Fatal(err)
					}
					if err := diffCovers(next.cov, full); err != nil {
						t.Fatalf("K=%g step %d: delta cover differs from a full cover: %v", k, step, err)
					}
					want := wantResolved(eco, st.cov, full, h)
					r, u := 0, 0
					for ti, tr := range succ.forest.Trees() {
						for _, v := range tr.Gates {
							got := next.cov.Best[v] != st.cov.Best[v]
							if got != want[v] {
								t.Fatalf("K=%g step %d: gate %d re-solved=%v, want %v", k, step, v, got, want[v])
							}
							switch {
							case !eco.rebuild.Dirty[ti]:
							case got:
								r++
							default:
								u++
							}
						}
					}
					mu.Lock()
					resolved += r
					reused += u
					mu.Unlock()
					prep, st = succ, next
				}
			}
		})
	}
}

// wantResolved names the gates a solution-level delta must re-solve,
// computed from the previous cover and a full cover of the successor:
// in each dirty tree, bottom-up, a gate is re-solved when it was
// re-enumerated, has no previous solution, or lies within h father
// steps above a re-solved gate whose full-cover DP terms differ
// bitwise from its previous ones.
func wantResolved(e *ECO, prev, full *cover.Result, h int) []bool {
	prep := e.Prep
	want := make([]bool, len(full.Best))
	above := make([]bool, len(full.Best))
	for ti, t := range prep.forest.Trees() {
		if !e.rebuild.Dirty[ti] {
			continue
		}
		for _, v := range t.Gates {
			if !e.rebuild.Reenumerated[v] && prev.Best[v] != nil && !above[v] {
				continue
			}
			want[v] = true
			if old, now := prev.Best[v], full.Best[v]; old == nil ||
				!bitsEqual(old.AreaCost, now.AreaCost) || !bitsEqual(old.WireCost, now.WireCost) ||
				!bitsEqual(old.WireCostW, now.WireCostW) || !bitsEqual(old.Pos.X, now.Pos.X) ||
				!bitsEqual(old.Pos.Y, now.Pos.Y) {
				f := prep.forest.Father[v]
				for s := 0; s < h && f >= 0; s++ {
					above[f] = true
					f = prep.forest.Father[f]
				}
			}
		}
	}
	return want
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffCovers compares two covers field by field, floats by their bits:
// every gate's solution (the match by cell, pattern, root, leaves and
// covered gates, its subtree-leaf flags, every cost term and its
// position), the committed positions and the root reductions. It
// describes the first difference, or returns nil.
func diffCovers(a, b *cover.Result) error {
	if len(a.Best) != len(b.Best) || len(a.Pos) != len(b.Pos) {
		return fmt.Errorf("shapes differ: %d/%d solutions, %d/%d positions", len(a.Best), len(b.Best), len(a.Pos), len(b.Pos))
	}
	for v := range a.Best {
		sa, sb := a.Best[v], b.Best[v]
		if (sa == nil) != (sb == nil) {
			return fmt.Errorf("gate %d: solution presence %v vs %v", v, sa != nil, sb != nil)
		}
		if sa == nil {
			continue
		}
		ma, mb := &sa.Match, &sb.Match
		switch {
		case ma.Cell != mb.Cell || ma.PatternIndex != mb.PatternIndex || ma.Root != mb.Root:
			return fmt.Errorf("gate %d: match %s/%d@%d vs %s/%d@%d", v,
				ma.Cell.Name, ma.PatternIndex, ma.Root, mb.Cell.Name, mb.PatternIndex, mb.Root)
		case !slices.Equal(ma.Leaves, mb.Leaves) || !slices.Equal(ma.Covered, mb.Covered):
			return fmt.Errorf("gate %d: leaves %v covered %v vs leaves %v covered %v", v, ma.Leaves, ma.Covered, mb.Leaves, mb.Covered)
		case sa.SubLeaf != sb.SubLeaf:
			return fmt.Errorf("gate %d: subtree leaves %b vs %b", v, sa.SubLeaf, sb.SubLeaf)
		case !bitsEqual(sa.AreaCost, sb.AreaCost) || !bitsEqual(sa.WireCost, sb.WireCost) ||
			!bitsEqual(sa.WireCostW, sb.WireCostW) || !bitsEqual(sa.Wire, sb.Wire) ||
			!bitsEqual(sa.Pos.X, sb.Pos.X) || !bitsEqual(sa.Pos.Y, sb.Pos.Y):
			return fmt.Errorf("gate %d: terms %+v vs %+v", v, *sa, *sb)
		}
	}
	for v := range a.Pos {
		if !bitsEqual(a.Pos[v].X, b.Pos[v].X) || !bitsEqual(a.Pos[v].Y, b.Pos[v].Y) {
			return fmt.Errorf("gate %d: committed position %v vs %v", v, a.Pos[v], b.Pos[v])
		}
	}
	if !bitsEqual(a.RootArea, b.RootArea) || !bitsEqual(a.RootWire, b.RootWire) {
		return fmt.Errorf("root reductions (%v, %v) vs (%v, %v)", a.RootArea, a.RootWire, b.RootArea, b.RootWire)
	}
	return nil
}
