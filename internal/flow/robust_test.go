package flow

import (
	"context"
	"errors"
	"testing"
	"time"

	"casyn/internal/bench"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/runstage"
)

// TestSweepDegradesOnInjectedFailure injects a router failure at one K
// of a three-step ladder and checks the degrade contract: the failed
// iteration is recorded with its typed error, the other Ks still run,
// and Best() picks among the survivors.
func TestSweepDegradesOnInjectedFailure(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	injected := errors.New("injected route failure")
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageRoute, K: 0.001, Err: injected},
	}}
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatalf("Run must degrade, not fail: %v", err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3 (ladder must continue past the failure)", len(res.Iterations))
	}
	bad := res.Iterations[1]
	if bad.Err == nil {
		t.Fatalf("K=0.001 iteration not recorded as failed: %+v", bad)
	}
	se := runstage.AsStage(bad.Err)
	if se == nil {
		t.Fatalf("iteration error is not a StageError: %v", bad.Err)
	}
	if se.Stage != runstage.StageRoute || se.K != 0.001 {
		t.Errorf("StageError = stage %q K %g, want route/0.001", se.Stage, se.K)
	}
	if !errors.Is(bad.Err, injected) {
		t.Error("injected cause lost from the error chain")
	}
	for _, i := range []int{0, 2} {
		if res.Iterations[i].Err != nil || res.Iterations[i].NumCells == 0 {
			t.Errorf("K=%g iteration should have completed: %+v", res.Iterations[i].K, res.Iterations[i])
		}
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no best iteration among the survivors")
	}
	if best.Err != nil {
		t.Error("Best() selected a skipped iteration")
	}
	var failed []Iteration
	for _, it := range res.Iterations {
		if it.Err != nil {
			failed = append(failed, it)
		}
	}
	if len(failed) != 1 || failed[0].K != 0.001 {
		t.Errorf("skipped iterations = %+v, want exactly the K=0.001 row", failed)
	}
}

// TestSweepIsolatesInjectedPanic panics inside the place stage at one
// K and checks the panic surfaces as a typed StageError with the
// recovered value and stack, while the rest of the ladder completes.
func TestSweepIsolatesInjectedPanic(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StagePlace, K: 0.5, Panic: "injected placer panic"},
	}}
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatalf("Run must isolate the panic: %v", err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3", len(res.Iterations))
	}
	bad := res.Iterations[2]
	se := runstage.AsStage(bad.Err)
	if se == nil {
		t.Fatalf("panicked iteration error = %v, want StageError", bad.Err)
	}
	if !se.Panicked || se.PanicValue != "injected placer panic" {
		t.Errorf("panic not preserved: %+v", se)
	}
	if se.Stage != runstage.StagePlace || len(se.Stack) == 0 {
		t.Errorf("stage/stack not recorded: stage=%q stack=%d bytes", se.Stage, len(se.Stack))
	}
	if res.Best() == nil || res.Best().Err != nil {
		t.Error("Best() must come from the surviving iterations")
	}
}

// TestEveryKFailingErrors: when the whole ladder fails, Run reports an
// error (joining the per-K causes) alongside the full skipped record.
func TestEveryKFailingErrors(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	injected := errors.New("map always fails")
	cfg.KSchedule = []float64{0, 0.001}
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, AllK: true, Err: injected},
	}}
	res, err := Run(context.Background(), pc, cfg)
	if err == nil {
		t.Fatal("Run must error when every K fails")
	}
	if !errors.Is(err, injected) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	if res == nil || len(res.Iterations) != 2 {
		t.Fatalf("full skipped record expected, got %+v", res)
	}
	if res.BestIndex != -1 || res.Best() != nil {
		t.Error("no iteration completed, Best must be nil")
	}
}

// TestStageTimeoutDegrades stalls the route stage past the per-stage
// budget at one K; the iteration must fail with Timeout() true and the
// ladder must continue.
func TestStageTimeoutDegrades(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001}
	// The budget must hold healthy stages even with -race
	// instrumentation overhead on a loaded single-CPU machine, while
	// the stalled stage still proves enforcement: without it the run
	// would block the full 30 s delay.
	cfg.StageTimeout = 2 * time.Second
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageRoute, K: 0.001, Delay: 30 * time.Second},
	}}
	start := time.Now()
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatalf("Run must degrade on a stage timeout: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("stage budget not enforced: run took %v", elapsed)
	}
	bad := res.Iterations[1]
	se := runstage.AsStage(bad.Err)
	if se == nil || !se.Timeout() {
		t.Fatalf("want a timeout StageError, got %v", bad.Err)
	}
	if !errors.Is(bad.Err, context.DeadlineExceeded) {
		t.Error("timeout must satisfy errors.Is(err, context.DeadlineExceeded)")
	}
	if res.Iterations[0].Err != nil {
		t.Error("K=0 iteration should be untouched by the K=0.001 stall")
	}
}

// TestIterationTimeoutDegrades stalls one iteration past the
// per-iteration budget; it must be skipped while the rest of the
// ladder — under the same budget — completes.
func TestIterationTimeoutDegrades(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.IterationTimeout = 30 * time.Second
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, K: 0.001, Delay: time.Minute},
	}}
	// Shrink only the faulted iteration's budget window by using a
	// short global budget; healthy iterations finish well inside it.
	cfg.IterationTimeout = 2 * time.Second
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatalf("Run must degrade on an iteration timeout: %v", err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d, want 3", len(res.Iterations))
	}
	bad := res.Iterations[1]
	if !errors.Is(bad.Err, context.DeadlineExceeded) {
		t.Fatalf("stalled iteration not recorded as timeout: %+v", bad.Err)
	}
	if res.Iterations[0].Err != nil || res.Iterations[2].Err != nil {
		t.Error("healthy iterations must complete under the same budget")
	}
}

// TestRunCanceledReturnsPartial: when the parent context dies mid-
// sweep, Run stops the ladder, returns the iterations completed so
// far, and reports the cancellation.
func TestRunCanceledReturnsPartial(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001, 0.5}
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, K: 0.001, Delay: time.Minute},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, pc, cfg)
	if err == nil {
		t.Fatal("canceled Run must return an error")
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
	if len(res.Iterations) >= 3 {
		t.Errorf("ladder must stop early on parent cancellation, ran %d iterations", len(res.Iterations))
	}
}

// TestRunOnceDeadlineStopsMidIteration is the acceptance check for
// cooperative cancellation: a short deadline on a large layered
// benchmark must stop RunOnce mid-iteration within one check interval
// of the inner loops, not after the iteration finishes.
func TestRunOnceDeadlineStopsMidIteration(t *testing.T) {
	spec := bench.TooLargeLayered().Scaled(0.5)
	d, err := bench.BuildLayeredSubject(spec, bench.Direct)
	if err != nil {
		t.Fatal(err)
	}
	area := float64(d.BaseGateCount()) * 4.6 / 0.58
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = RunOnce(ctx, pc, 0.001, cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("RunOnce must fail under an expired deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error must wrap context.DeadlineExceeded: %v", err)
	}
	se := runstage.AsStage(err)
	if se == nil || !se.Timeout() {
		t.Errorf("want a timeout StageError, got %v", err)
	}
	// Generous bound: far below a full iteration on this design, far
	// above any single cooperative check interval.
	if elapsed > 5*time.Second {
		t.Errorf("RunOnce took %v after a 30ms deadline; cancellation not cooperative", elapsed)
	}
}

// TestPrepareCanceled: the once-per-design preparation is itself
// cancelable and reports the prepare stage.
func TestPrepareCanceled(t *testing.T) {
	spec := bench.SPLA.ScaledSpec(0.05)
	p, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, 6.656)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Prepare(ctx, d, Config{Layout: layout, FreshPlacement: true})
	if err == nil {
		t.Fatal("Prepare must fail under a canceled ctx")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error must wrap context.Canceled: %v", err)
	}
	se := runstage.AsStage(err)
	if se == nil || se.Stage != runstage.StagePrepare || !se.Canceled() {
		t.Errorf("want a canceled prepare StageError, got %v", err)
	}
}
