package flow

import (
	"context"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/obs"
)

// TestRipupWorkersDeterminism runs scaled SPLA and PDC at a congested
// capacity — tight enough that the rip-up/reroute negotiation actually
// fires — and checks that every RouteOpts.Workers value produces a
// byte-identical iteration: same result fields, same mapped netlist,
// and the same metrics fingerprint (counters, histogram buckets, hot
// spots — which pins the router's event stream, not just its summary).
func TestRipupWorkersDeterminism(t *testing.T) {
	for _, class := range []bench.Class{bench.SPLA, bench.PDC} {
		t.Run(class.String(), func(t *testing.T) {
			t.Parallel()
			pc, cfg := preparedClass(t, class, 0.75)
			// Starve capacity so the initial pattern routing overflows
			// and the negotiation has rounds to run.
			cfg.RouteOpts.CapacityScale = 0.55
			cfg.RouteOpts.RipupIterations = 5

			run := func(workers int) (Iteration, string) {
				t.Helper()
				cfg.RouteOpts.Workers = workers
				ctx := obs.WithRecorder(context.Background(), obs.New())
				it, err := RunOnce(ctx, pc, 0, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return it, it.Metrics.Fingerprint()
			}

			ref, want := run(1)
			if ref.Metrics.Events.Counters["route.ripup_iterations"] == 0 {
				t.Fatal("capacity not tight enough: rip-up never ran, determinism unexercised")
			}
			t.Logf("%s: ripup_iterations=%d reroutes=%d regions=%d boundary=%d overflow=%d",
				class,
				ref.Metrics.Events.Counters["route.ripup_iterations"],
				ref.Metrics.Events.Counters["route.reroutes"],
				ref.Metrics.Events.Counters["route.regions"],
				ref.Metrics.Events.Counters["route.boundary_nets"],
				ref.Overflow)
			for _, w := range []int{2, 8} {
				it, got := run(w)
				sameIteration(t, class.String(), ref, it)
				if got != want {
					t.Errorf("workers=%d metrics fingerprint diverged from workers=1", w)
				}
			}
		})
	}
}
