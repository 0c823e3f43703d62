package flow

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"casyn/internal/bench"
	"casyn/internal/library"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/runstage"
)

// preparedClass is prepared() for an arbitrary benchmark class. The
// library is created once and shared by every Run under comparison so
// that netlist cell pointers are comparable.
func preparedClass(t *testing.T, class bench.Class, tightness float64) (*Context, Config) {
	t.Helper()
	spec := class.ScaledSpec(0.05)
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
		Lib:            library.Default(),
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

// sameIteration compares every deterministic field of two iterations,
// including the mapped netlist (cell pointers come from the shared
// library, so DeepEqual is exact).
func sameIteration(t *testing.T, tag string, a, b Iteration) {
	t.Helper()
	if a.K != b.K || a.CellArea != b.CellArea || a.NumCells != b.NumCells ||
		a.DuplicatedCells != b.DuplicatedCells || a.Utilization != b.Utilization ||
		a.Overflow != b.Overflow || a.FailedConnections != b.FailedConnections ||
		a.WireLength != b.WireLength ||
		a.Routable != b.Routable || (a.Err != nil) != (b.Err != nil) {
		t.Errorf("%s: K=%g iterations diverged:\nserial   %+v\nparallel %+v", tag, a.K, a, b)
	}
	if !reflect.DeepEqual(a.Netlist, b.Netlist) {
		t.Errorf("%s: K=%g mapped netlists diverged", tag, a.K)
	}
}

// TestRunWorkersDeterminism is the tentpole acceptance check: the
// parallel sweep must produce a Result identical to the serial one on
// scaled SPLA and PDC.
func TestRunWorkersDeterminism(t *testing.T) {
	for _, class := range []bench.Class{bench.SPLA, bench.PDC} {
		t.Run(class.String(), func(t *testing.T) {
			pc, cfg := preparedClass(t, class, 0.55)
			cfg.KSchedule = []float64{0, 0.001, 0.01, 0.5}

			cfg.Workers = 1
			serial, err := Run(context.Background(), pc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workers = 8
			parallel, err := Run(context.Background(), pc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Iterations) != len(parallel.Iterations) {
				t.Fatalf("iteration counts diverged: %d vs %d",
					len(serial.Iterations), len(parallel.Iterations))
			}
			if serial.BestIndex != parallel.BestIndex {
				t.Errorf("BestIndex diverged: %d vs %d", serial.BestIndex, parallel.BestIndex)
			}
			for i := range serial.Iterations {
				sameIteration(t, class.String(), serial.Iterations[i], parallel.Iterations[i])
			}
		})
	}
}

// TestParallelSweepDegradesOnInjectedFailure re-runs the PR 1 degrade
// contract under the parallel sweep: a failed K is recorded in ladder
// order with its typed error while the other workers' iterations
// survive.
func TestParallelSweepDegradesOnInjectedFailure(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	injected := errors.New("injected route failure")
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.Workers = 4
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageRoute, K: 0.001, Err: injected},
	}}
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatalf("parallel Run must degrade, not fail: %v", err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3", len(res.Iterations))
	}
	bad := res.Iterations[1]
	if !errors.Is(bad.Err, injected) {
		t.Fatalf("K=0.001 not recorded as the injected failure: %+v", bad.Err)
	}
	se := runstage.AsStage(bad.Err)
	if se == nil || se.Stage != runstage.StageRoute || se.K != 0.001 {
		t.Errorf("StageError = %+v, want route/0.001", se)
	}
	if res.Iterations[0].Err != nil || res.Iterations[2].Err != nil {
		t.Error("healthy iterations must survive a sibling worker's failure")
	}
	if best := res.Best(); best == nil || best.Err != nil {
		t.Error("Best() must come from the survivors")
	}
}

// TestParallelSweepIsolatesPanic: a panic inside one worker's stage
// must not take down the pool.
func TestParallelSweepIsolatesPanic(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.Workers = 4
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StagePlace, K: 0.5, Panic: "injected placer panic"},
	}}
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatalf("parallel Run must isolate the panic: %v", err)
	}
	se := runstage.AsStage(res.Iterations[2].Err)
	if se == nil || !se.Panicked || se.PanicValue != "injected placer panic" {
		t.Fatalf("panic not preserved through the pool: %+v", res.Iterations[2].Err)
	}
	if res.Best() == nil || res.Best().Err != nil {
		t.Error("Best() must come from the surviving iterations")
	}
}

// TestParallelEveryKFailingErrors: the all-failed contract holds when
// the failures happen on different workers.
func TestParallelEveryKFailingErrors(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	injected := errors.New("map always fails")
	cfg.KSchedule = []float64{0, 0.001}
	cfg.Workers = 2
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, AllK: true, Err: injected},
	}}
	res, err := Run(context.Background(), pc, cfg)
	if err == nil {
		t.Fatal("parallel Run must error when every K fails")
	}
	if !errors.Is(err, injected) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	if res == nil || len(res.Iterations) != 2 || res.BestIndex != -1 {
		t.Fatalf("full skipped record expected, got %+v", res)
	}
}

// TestParallelStopAtFirstRoutable: under speculation the sweep must
// still truncate the result at the first routable K and cancel the
// higher-K workers instead of waiting for them.
func TestParallelStopAtFirstRoutable(t *testing.T) {
	pc, cfg := prepared(t, 0.40) // roomy die: K=0 should route
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.StopAtFirstRoutable = true
	cfg.Workers = 4
	// A stalled highest-K iteration proves the cancellation: without
	// it the sweep would block a minute on the speculative worker.
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, K: 0.5, Delay: time.Minute},
	}}
	start := time.Now()
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("speculative workers not canceled: sweep took %v", elapsed)
	}
	if best := res.Best(); best == nil || !best.Routable {
		t.Skip("scaled benchmark did not route on this die; nothing to truncate")
	}
	last := res.Iterations[len(res.Iterations)-1]
	if !last.Routable {
		t.Errorf("result must be truncated at the first routable K, ends with %+v", last)
	}
	for _, it := range res.Iterations[:len(res.Iterations)-1] {
		if it.Routable {
			t.Errorf("iteration K=%g before the stop point is routable", it.K)
		}
	}
}

// TestParallelRunCanceledReturnsPartial: parent cancellation stops the
// pool promptly and reports the ctx cause with the partial result.
func TestParallelRunCanceledReturnsPartial(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.Workers = 2
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, AllK: true, Delay: time.Minute},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, pc, cfg)
	if err == nil {
		t.Fatal("canceled parallel Run must return an error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error must wrap the ctx cause: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation not prompt: %v", elapsed)
	}
	if res == nil {
		t.Fatal("partial result must be returned on cancellation")
	}
	if len(res.Iterations) != 0 {
		t.Errorf("every iteration was stalled past the deadline, none may complete; got %d", len(res.Iterations))
	}
}
