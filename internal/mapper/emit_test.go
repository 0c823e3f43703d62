package mapper

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/cover"
	"casyn/internal/library"
	"casyn/internal/obs"
	"casyn/internal/place"
)

// diffReconstruct compares res, the netlist MapECO or MapStateful
// built from cov, with the reference full rebuild of the same cover:
// Verilog bytes, instance and signal bookkeeping, and every scalar
// (floats by their bits). It describes the first difference.
func diffReconstruct(prep *Prepared, cov *cover.Result, res *Result) error {
	want, err := reconstruct(prep.dag, prep.forest, cov)
	if err != nil {
		return fmt.Errorf("reference rebuild: %v", err)
	}
	switch {
	case res.NumCells != want.NumCells:
		return fmt.Errorf("%d cells, reference %d", res.NumCells, want.NumCells)
	case res.DuplicatedCells != want.DuplicatedCells:
		return fmt.Errorf("%d duplicated cells, reference %d", res.DuplicatedCells, want.DuplicatedCells)
	case math.Float64bits(res.CellArea) != math.Float64bits(want.CellArea):
		return fmt.Errorf("cell area %v, reference %v", res.CellArea, want.CellArea)
	case !slices.Equal(res.InstGate, want.InstGate):
		return fmt.Errorf("InstGate differs")
	case !slices.Equal(res.SigGate, want.SigGate):
		return fmt.Errorf("SigGate differs")
	case resultKey(res) != resultKey(want):
		return fmt.Errorf("Verilog differs")
	}
	return nil
}

// generatedPrepared places a generated design of class at scale and
// prepares it for mapping with the given covering workers.
func generatedPrepared(tb testing.TB, class bench.Class, scale float64, workers int) *Prepared {
	tb.Helper()
	spec := class.Spec()
	if scale != 1 {
		spec = class.ScaledSpec(scale)
	}
	p, err := bench.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		tb.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, library.RowHeight)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	pos, poPads, _, _, err := SubjectPlacement(ctx, d, layout, place.Options{Seed: 1, RefinePasses: 8})
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := Prepare(ctx, d, Input{Pos: pos, POPads: poPads}, Options{Lib: library.Default(), Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	return prep
}

// TestMapECOChainMatchesReconstruct chains 120 RandomEdits steps of
// one to three edits each on a generated design and checks, at every
// step, that MapECO's patched netlist equals the reference full
// rebuild of the same cover, at covering workers 1 and 4. The stream
// must cover all four edit kinds, change the cell count, and copy most
// of each netlist from its parent.
func TestMapECOChainMatchesReconstruct(t *testing.T) {
	t.Parallel()
	const k, steps = 0.5, 120
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			prep := generatedPrepared(t, bench.TooLarge, 0.05, workers)
			rec := obs.New()
			ctx := obs.WithRecorder(context.Background(), rec)
			res, st, err := MapStateful(ctx, prep, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffReconstruct(prep, st.cov, res); err != nil {
				t.Fatalf("full build: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(workers)))
			kinds := map[EditKind]bool{}
			resized := 0
			for step := 0; step < steps; step++ {
				edits := RandomEdits(st.prep, rng, 1+rng.Intn(3))
				for _, ed := range edits.Edits {
					kinds[ed.Kind] = true
				}
				eco, err := st.prep.Invalidate(ctx, edits)
				if err != nil {
					t.Fatalf("step %d: Invalidate: %v", step, err)
				}
				next, nst, err := MapECO(ctx, eco, st, k)
				if err != nil {
					t.Fatalf("step %d: MapECO: %v", step, err)
				}
				if err := diffReconstruct(eco.Prep, nst.cov, next); err != nil {
					t.Fatalf("step %d (%v): patched netlist differs from the reference rebuild: %v", step, edits.Edits, err)
				}
				if next.NumCells != res.NumCells {
					resized++
				}
				res, st = next, nst
			}
			if len(kinds) != 4 {
				t.Errorf("the stream drew edit kinds %v, want all four", kinds)
			}
			if resized == 0 {
				t.Error("no step changed the cell count")
			}
			c := rec.Snapshot().Counters
			copied, cells := c["eco.copied_cells"], c["map.cells"]
			t.Logf("%d of %d steps changed the cell count; patches copied %d of %d cells", resized, steps, copied, cells)
			if copied*2 < cells {
				t.Errorf("patches copied %d of %d cells, want most", copied, cells)
			}
		})
	}
}

// TestMapECOConcurrentPatches maps two ECOs of one parent concurrently,
// each twice, and checks every result against the reference rebuild:
// a patch only reads its parent.
func TestMapECOConcurrentPatches(t *testing.T) {
	t.Parallel()
	const k = 0.5
	prep := generatedPrepared(t, bench.TooLarge, 0.05, 2)
	ctx := context.Background()
	_, st, err := MapStateful(ctx, prep, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var ecos []*ECO
	for i := 0; i < 2; i++ {
		eco, err := prep.Invalidate(ctx, RandomEdits(prep, rng, 2))
		if err != nil {
			t.Fatal(err)
		}
		ecos = append(ecos, eco, eco)
	}
	errs := make(chan error, len(ecos))
	for _, eco := range ecos {
		go func() {
			res, nst, err := MapECO(ctx, eco, st, k)
			if err == nil {
				err = diffReconstruct(eco.Prep, nst.cov, res)
			}
			errs <- err
		}()
	}
	for range ecos {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkMapECO times MapECO alone along a chain of single-gate
// edits on full-size TOO_LARGE at K=0.5: the map cost per edit of
// casynbench's eco workload, without placement and routing. Each
// iteration draws one edit against the latest state and invalidates it
// untimed, then maps it.
func BenchmarkMapECO(b *testing.B) {
	const k = 0.5
	prep := generatedPrepared(b, bench.TooLarge, 1, 2)
	ctx := context.Background()
	_, st, err := MapStateful(ctx, prep, k, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eco, err := st.prep.Invalidate(ctx, RandomEdits(st.prep, rng, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, next, err := MapECO(ctx, eco, st, k)
		if err != nil {
			b.Fatal(err)
		}
		st = next
	}
}
