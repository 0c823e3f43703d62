package flow

import (
	"context"

	"testing"

	"casyn/internal/bench"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/subject"
)

// prepared returns a small subject DAG context on a fixed layout.
func prepared(t *testing.T, tightness float64) (*Context, Config) {
	t.Helper()
	spec := bench.SPLA.ScaledSpec(0.05)
	p, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		t.Fatal(err)
	}
	area := float64(d.BaseGateCount()) * 4.6 / tightness
	layout, err := place.NewLayout(area, 1.0, 6.656)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layout:         layout,
		PlaceOpts:      place.Options{Seed: 1},
		RouteOpts:      route.Options{CapacityScale: 1.98},
		FreshPlacement: true,
	}
	pc, err := Prepare(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pc, cfg
}

func TestRunOnceProducesConsistentIteration(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.RunSTA = true
	it, err := RunOnce(context.Background(), pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if it.NumCells == 0 || it.CellArea <= 0 {
		t.Fatalf("degenerate iteration: %+v", it)
	}
	if it.Utilization <= 0 || it.Utilization > 1.2 {
		t.Errorf("utilization = %g", it.Utilization)
	}
	if it.Netlist == nil || it.Netlist.NumCells() != it.NumCells {
		t.Error("netlist inconsistent with cell count")
	}
	if it.Timing == nil || it.Timing.MaxArrival <= 0 {
		t.Error("STA requested but missing")
	}
	if it.Routable != (it.FailedConnections == 0 && it.Violations == 0) {
		t.Error("Routable flag inconsistent")
	}
}

func TestRunLadderAndBest(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3", len(res.Iterations))
	}
	// Areas essentially never shrink along the ladder. (K = 0 is
	// area-optimal per tree but not across trees: cross-tree logic
	// duplication can differ by a hair between covers, so allow 2%.)
	for i := 1; i < len(res.Iterations); i++ {
		if res.Iterations[i].CellArea < res.Iterations[0].CellArea*0.98 {
			t.Errorf("K=%g area %.0f far below min area %.0f",
				res.Iterations[i].K, res.Iterations[i].CellArea, res.Iterations[0].CellArea)
		}
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no best iteration")
	}
	// Best is routable if any iteration is, else min-violation.
	anyRoutable := false
	for _, it := range res.Iterations {
		if it.Routable {
			anyRoutable = true
		}
	}
	if anyRoutable != res.FoundRoutable() {
		t.Error("FoundRoutable inconsistent")
	}
}

func TestStopAtFirstRoutable(t *testing.T) {
	pc, cfg := prepared(t, 0.40) // roomy die: K=0 should route
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.StopAtFirstRoutable = true
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 3 && res.Iterations[0].Routable {
		t.Error("flow did not stop at first routable iteration")
	}
}

func TestSeededVsFreshPlacement(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	fresh, err := RunOnce(context.Background(), pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FreshPlacement = false
	seeded, err := RunOnce(context.Background(), pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identical netlists, different placements.
	if fresh.NumCells != seeded.NumCells || fresh.CellArea != seeded.CellArea {
		t.Error("placement mode changed the mapping")
	}
	if fresh.WireLength == seeded.WireLength {
		t.Log("fresh and seeded placements coincide (possible on tiny designs)")
	}
}

func TestDefaultKSchedule(t *testing.T) {
	ks := DefaultKSchedule()
	if len(ks) != 14 || ks[0] != 0 || ks[len(ks)-1] != 1.0 {
		t.Errorf("DefaultKSchedule = %v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Error("K ladder not increasing")
		}
	}
}

func TestFlowDeterminism(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	a, err := RunOnce(context.Background(), pc, 0.0025, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce(context.Background(), pc, 0.0025, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CellArea != b.CellArea || a.WireLength != b.WireLength ||
		a.Violations != b.Violations || a.FailedConnections != b.FailedConnections {
		t.Errorf("flow not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunWithRelaxation(t *testing.T) {
	// A die so tight that no K routes; relaxation must grow the
	// floorplan until one does (or exhaust the budget gracefully).
	spec := bench.SPLA.ScaledSpec(0.05)
	p, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		t.Fatal(err)
	}
	area := float64(d.BaseGateCount()) * 4.6 / 0.80 // very tight
	layout, err := place.NewLayout(area, 1.0, 6.656)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layout:         layout,
		PlaceOpts:      place.Options{Seed: 1},
		RouteOpts:      route.Options{CapacityScale: 1.98},
		FreshPlacement: true,
		KSchedule:      []float64{0, 0.001},
	}
	res, err := RunWithRelaxation(context.Background(), d, cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attempts) == 0 {
		t.Fatal("no attempts")
	}
	it, accepted := res.Accepted()
	if it == nil {
		t.Fatal("no accepted iteration")
	}
	// Floorplans grow monotonically across attempts.
	for i := 1; i < len(res.Layouts); i++ {
		if res.Layouts[i].NumRows != res.Layouts[i-1].NumRows+1 {
			t.Error("relaxation must add one row per attempt")
		}
	}
	if res.Attempts[res.Final].FoundRoutable() && accepted.NumRows < layout.NumRows {
		t.Error("accepted layout smaller than the starting one")
	}
}

func TestRunWithRelaxationNegativeBound(t *testing.T) {
	d := subject.New()
	d.AddOutput("o", d.AddInv(d.AddPI("a")))
	res, err := RunWithRelaxation(context.Background(), d, Config{}, -1)
	if err == nil {
		t.Fatalf("negative row bound accepted: %+v", res)
	}
}

// TestRunOnceDieCountMismatch: a context prepared for a multi-die run
// holds the replicated DAG and its k-way forest, so it serves exactly
// that die count and refuses any other.
func TestRunOnceDieCountMismatch(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.Dies = 2
	cfg.RouteOpts.RegionPinBudget = -1
	if err := PrepareMapping(context.Background(), pc, cfg); err != nil {
		t.Fatal(err)
	}
	for _, dies := range []int{0, 4} {
		run := cfg
		run.Dies = dies
		if _, err := RunOnce(context.Background(), pc, 0.001, run); err == nil {
			t.Errorf("Dies=%d run on a 2-die context: no error", dies)
		}
	}
	it, err := RunOnce(context.Background(), pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if it.NumCells == 0 {
		t.Errorf("degenerate 2-die iteration: %+v", it)
	}
}
