package mapper

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// preparedKs is the ladder the prepared-vs-fresh property is checked
// over: the DAGON baseline, two mid rungs, and a high-K rung where the
// wire term dominates the covering cost.
var preparedKs = []float64{0, 0.5, 1, 2}

// placedCircuit loads one examples/circuits PLA and runs the standard
// subject placement (the golden suite's operating point: seed 1, 58%
// utilization).
func placedCircuit(t *testing.T, plaPath string) (*subject.DAG, Input) {
	t.Helper()
	f, err := os.Open(plaPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := logic.ReadPLA(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		t.Fatal(err)
	}
	area := float64(d.BaseGateCount()) * 4.6 / 0.58
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	pos, poPads, _, _, err := SubjectPlacement(context.Background(), d, layout, place.Options{Seed: 1, RefinePasses: 8})
	if err != nil {
		t.Fatal(err)
	}
	return d, Input{Pos: pos, POPads: poPads}
}

// resultKey condenses a mapping result into the byte-exact identity
// the property compares: the structural Verilog plus every scalar.
// Errors fold into the key (this also keeps it goroutine-safe — no
// t.Fatal off the test goroutine in the race test).
func resultKey(r *Result) string {
	var sb strings.Builder
	if err := r.Netlist.WriteVerilog(&sb, "dut"); err != nil {
		return "verilog error: " + err.Error()
	}
	fmt.Fprintf(&sb, "\narea=%v cells=%d dup=%d wire=%v inst=%v",
		r.CellArea, r.NumCells, r.DuplicatedCells, r.WireEstimate, r.InstGate)
	return sb.String()
}

// TestMapPreparedMatchesMap is the shared-prefix determinism property:
// on every example circuit, MapStateful over the K ladder is
// byte-identical — netlist Verilog, cell area, instance bookkeeping —
// to a fresh mapper.Map call at the same K.
func TestMapPreparedMatchesMap(t *testing.T) {
	t.Parallel()
	plas, err := filepath.Glob("../../examples/circuits/*.pla")
	if err != nil || len(plas) == 0 {
		t.Fatalf("no example circuits found: %v", err)
	}
	for _, pla := range plas {
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
			if !prep.Compatible(0, lib) {
				t.Fatal("Prepared incompatible with its own method/library")
			}
			if !prep.Compatible(0, library.Default()) {
				t.Error("a fresh default library must be compatible: compatibility is by content")
			}
			if prep.Compatible(0, libWithNand2Area(t, 11.0)) {
				t.Error("a library differing in one cell area must be incompatible")
			}
			for _, k := range preparedKs {
				fresh, err := Map(ctx, d, in, Options{K: k, Lib: lib})
				if err != nil {
					t.Fatalf("Map K=%g: %v", k, err)
				}
				pr, _, err := MapStateful(ctx, prep, k, nil)
				if err != nil {
					t.Fatalf("MapStateful K=%g: %v", k, err)
				}
				if fk, pk := resultKey(fresh), resultKey(pr); fk != pk {
					t.Errorf("K=%g: prepared mapping differs from fresh Map\n--- fresh\n%.400s\n--- prepared\n%.400s", k, fk, pk)
				}
			}
		})
	}
}

// libWithNand2Area is the default library's cell table with only the
// NAND2 area changed.
func libWithNand2Area(t *testing.T, area float64) *library.Library {
	t.Helper()
	var cells []*library.Cell
	for _, c := range library.Default().Cells() {
		cp := *c
		if cp.Name == "NAND2" {
			cp.Area = area
		}
		cells = append(cells, &cp)
	}
	lib, err := library.NewLibrary(library.Default().Name, cells)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestMapPreparedSharedRace shares one Prepared across 8 goroutines
// mapping at interleaved K values, proving the artifact is immutable
// and safe for the concurrent ladder (run under -race in CI) and that
// concurrent use stays byte-identical to serial use.
func TestMapPreparedSharedRace(t *testing.T) {
	t.Parallel()
	d, in := placedCircuit(t, "../../examples/circuits/add2.pla")
	ctx := context.Background()
	lib := library.Default()
	prep, err := Prepare(ctx, d, in, Options{Lib: lib})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[float64]string, len(preparedKs))
	for _, k := range preparedKs {
		r, _, err := MapStateful(ctx, prep, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = resultKey(r)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(preparedKs)*2; i++ {
				k := preparedKs[(g+i)%len(preparedKs)]
				r, _, err := MapStateful(ctx, prep, k, nil)
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d K=%g: %w", g, k, err)
					return
				}
				if got := resultKey(r); got != want[k] {
					errs[g] = fmt.Errorf("goroutine %d K=%g: shared-Prepared result diverged", g, k)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
