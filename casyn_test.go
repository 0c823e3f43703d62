package casyn

import (
	"reflect"
	"strings"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/logic"
	"casyn/internal/place"
	"casyn/internal/route"
)

// smallPLA builds a modest synthetic PLA for API tests.
func smallPLA(t *testing.T) *logic.PLA {
	t.Helper()
	spec := bench.SPLA.ScaledSpec(0.05)
	p, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSynthesizeEndToEnd(t *testing.T) {
	t.Parallel()
	p := smallPLA(t)
	res, err := Synthesize(p, Options{K: 0.001, RunTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseGates == 0 || res.NumCells == 0 || res.CellArea <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Utilization <= 0 || res.Utilization > 1.1 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	if res.CriticalPathNs <= 0 {
		t.Error("timing requested but no critical path")
	}
	rep := res.Report()
	for _, want := range []string{"base gates", "cell area", "routing violations", "critical path"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Report lacks %q:\n%s", want, rep)
		}
	}
}

func TestSynthesizeKZeroVsMidK(t *testing.T) {
	t.Parallel()
	p := smallPLA(t)
	r0, err := Synthesize(p, Options{K: 0})
	if err != nil {
		t.Fatal(err)
	}
	rk, err := Synthesize(p, Options{K: 0.05, DieArea: r0.Die.Area()})
	if err != nil {
		t.Fatal(err)
	}
	if rk.CellArea < r0.CellArea-1e-9 {
		t.Errorf("K>0 area %g below min area %g", rk.CellArea, r0.CellArea)
	}
}

func TestSynthesizeSISPath(t *testing.T) {
	t.Parallel()
	p := smallPLA(t)
	direct, err := Synthesize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sis, err := Synthesize(p, Options{OptimizeTechIndependent: true})
	if err != nil {
		t.Fatal(err)
	}
	if sis.BaseGates >= direct.BaseGates {
		t.Errorf("SIS path did not shrink base gates: %d vs %d", sis.BaseGates, direct.BaseGates)
	}
}

func TestReadPLARoundTrip(t *testing.T) {
	t.Parallel()
	src := ".i 2\n.o 1\n11 1\n0- 1\n.e\n"
	p, err := ReadPLA(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInputs != 2 || p.NumOutputs != 1 {
		t.Fatalf("parsed %d/%d", p.NumInputs, p.NumOutputs)
	}
	res, err := Synthesize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCells == 0 {
		t.Error("tiny PLA mapped to nothing")
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	t.Parallel()
	p := smallPLA(t)
	a, err := Synthesize(p, Options{K: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(p, Options{K: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if a.CellArea != b.CellArea || a.Violations != b.Violations || a.WireLength != b.WireLength {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestCalibrationConstants: FlowConfig carries the calibrated placer
// and router operating point, and Options.Seed overrides only the
// placement seed.
func TestCalibrationConstants(t *testing.T) {
	t.Parallel()
	cfg := FlowConfig(place.Layout{}, Options{})
	wantRoute := route.Options{GCellSize: gCellSize, RipupIterations: ripupIterations, CapacityScale: capacityScale}
	if !reflect.DeepEqual(cfg.RouteOpts, wantRoute) {
		t.Errorf("RouteOpts = %+v, want %+v", cfg.RouteOpts, wantRoute)
	}
	wantPlace := place.Options{Seed: placementSeed, RefinePasses: refinePasses}
	if cfg.PlaceOpts != wantPlace {
		t.Errorf("PlaceOpts = %+v, want %+v", cfg.PlaceOpts, wantPlace)
	}
	wantPlace.Seed = 7
	if po := FlowConfig(place.Layout{}, Options{Seed: 7}).PlaceOpts; po != wantPlace {
		t.Errorf("PlaceOpts with Seed 7 = %+v, want %+v", po, wantPlace)
	}
}
