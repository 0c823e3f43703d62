package experiments

import (
	"context"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// Scaled-down experiment runs keep the suite fast; the full-size runs
// live in the cmd tools and the repository benchmarks.
const testScale = 0.08

func TestKSweepScaledShape(t *testing.T) {
	t.Parallel()
	res, err := KSweep(context.Background(), bench.SPLA, testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(KSchedule()) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(KSchedule()))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// Cell area and count grow substantially across the ladder.
	if last.CellArea <= first.CellArea*1.1 {
		t.Errorf("area did not grow across ladder: %.0f -> %.0f", first.CellArea, last.CellArea)
	}
	if last.NumCells <= first.NumCells {
		t.Errorf("cell count did not grow: %d -> %d", first.NumCells, last.NumCells)
	}
	// Utilization tracks area on the fixed die.
	if last.Utilization <= first.Utilization {
		t.Error("utilization did not grow")
	}
	for _, r := range res.Rows {
		if r.Routable != (r.Violations == 0) {
			t.Errorf("K=%g: Routable flag inconsistent", r.K)
		}
	}
}

func TestTable1Scaled(t *testing.T) {
	t.Parallel()
	rows, layout, err := Table1(context.Background(), testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Label != "SIS" || rows[1].Label != "DAGON" {
		t.Fatalf("rows = %+v", rows)
	}
	// The paper's area relation: SIS cell area below DAGON's.
	if rows[0].CellArea >= rows[1].CellArea {
		t.Errorf("SIS area %.0f not below DAGON %.0f", rows[0].CellArea, rows[1].CellArea)
	}
	if layout.NumRows == 0 {
		t.Error("degenerate layout")
	}
	for _, r := range rows {
		if r.Utilization <= 0 || r.Utilization > 1.1 {
			t.Errorf("%s utilization %.3f out of range", r.Label, r.Utilization)
		}
	}
}

func TestFigure1Invariants(t *testing.T) {
	t.Parallel()
	minArea, congestion, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if congestion.CellArea <= minArea.CellArea {
		t.Errorf("congestion cover area %.3f not above min area %.3f",
			congestion.CellArea, minArea.CellArea)
	}
	if congestion.Wire >= minArea.Wire {
		t.Errorf("congestion cover wire %.1f not below min-area wire %.1f",
			congestion.Wire, minArea.Wire)
	}
	// The min-area cover is the paper's cell mix.
	counts := map[string]int{}
	for _, c := range minArea.Cells {
		counts[c]++
	}
	if counts["NAND3"] != 1 || counts["AOI21"] != 1 || counts["INV"] != 1 {
		t.Errorf("min-area cells = %v, want NAND3+AOI21+INV", minArea.Cells)
	}
}

func TestFigure3Scaled(t *testing.T) {
	t.Parallel()
	res, err := Figure3(context.Background(), bench.SPLA, testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("no iterations")
	}
	// The flow's one routability definition decides the figure's.
	var accepted *flow.Iteration
	for i := range res.Iterations {
		if res.Iterations[i].K == res.AcceptedK {
			accepted = &res.Iterations[i]
		}
	}
	if accepted == nil {
		t.Fatalf("accepted K %g is not an iteration", res.AcceptedK)
	}
	if res.Routable != accepted.Routable {
		t.Errorf("Routable = %v, accepted iteration's Routable = %v", res.Routable, accepted.Routable)
	}
	// With the standard floorplan the flow accepts an early K.
	if res.Routable && res.AcceptedK > 0.01 {
		t.Errorf("accepted K unexpectedly large: %g", res.AcceptedK)
	}
}

// TestMinimalDieRelaxation pins Figure 3's floorplan relaxation, the
// add-rows loop behind Tables 3 and 5: from a die tighter than the
// mapped cells (K=0.001 does not route on its 9 rows at this scale),
// staAtMinimalDie grows the floorplan to a routable die no smaller than
// the base, and that die is minimal: started one row smaller, the loop
// lands on the same row count.
func TestMinimalDieRelaxation(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	d, err := buildSubject(bench.SPLA, 0.05, bench.Direct)
	if err != nil {
		t.Fatal(err)
	}
	base, err := place.NewLayout(float64(d.BaseGateCount())*4.6/1.6, 1.0, library.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	cache := map[*subject.DAG]map[int]*flow.Context{}
	row, err := staAtMinimalDie(ctx, d, 0.001, base, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !row.Routable {
		t.Fatalf("no routable die within the row budget: %+v", row)
	}
	if row.NumRows < base.NumRows {
		t.Errorf("accepted %d rows, below the base %d", row.NumRows, base.NumRows)
	}
	if row.NumRows == base.NumRows {
		return
	}
	smaller, err := place.LayoutWithRows(row.NumRows-1, base.Die.W(), base.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	again, err := staAtMinimalDie(ctx, d, 0.001, smaller, 0, cache)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumRows != row.NumRows {
		t.Errorf("%d rows routed, below the accepted minimal die of %d", again.NumRows, row.NumRows)
	}
}

func TestSTATableScaled(t *testing.T) {
	t.Parallel()
	rows, err := STATable(context.Background(), bench.SPLA, testScale, 0.001, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	labels := []string{"K=0", "K=0.001", "SIS"}
	for i, r := range rows {
		if r.Label != labels[i] {
			t.Errorf("row %d label %q", i, r.Label)
		}
		if r.Arrival <= 0 {
			t.Errorf("%s arrival %.3f", r.Label, r.Arrival)
		}
		if r.SameK0PathArrival <= 0 {
			t.Errorf("%s same-path arrival missing", r.Label)
		}
		if r.NumRows == 0 || r.ChipArea <= 0 {
			t.Errorf("%s floorplan missing", r.Label)
		}
	}
	// The same-path column of the K=0 row is its own critical path.
	if rows[0].SameK0PathArrival != rows[0].Arrival {
		t.Errorf("K=0 same-path %.3f != arrival %.3f", rows[0].SameK0PathArrival, rows[0].Arrival)
	}
}

func TestCalibrationConstants(t *testing.T) {
	t.Parallel()
	ro := RouteOpts()
	if ro.CapacityScale != CapacityScale || ro.GCellSize != GCellSize {
		t.Error("RouteOpts does not carry the calibration")
	}
	po := PlaceOpts()
	if po.Seed != PlacementSeed || po.RefinePasses != RefinePasses {
		t.Error("PlaceOpts does not carry the calibration")
	}
}
