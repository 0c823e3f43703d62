package diffharness

import (
	"context"
	"testing"

	"casyn/internal/flow"
)

// TestAdaptiveSweepEveryExampleCircuit: the closed loop on every
// example circuit, workers 1 vs 4 — every iteration's netlist proven
// equivalent to the subject, the whole loop byte-identical across
// worker counts (RunAdaptiveSweep errors on any divergence).
func TestAdaptiveSweepEveryExampleCircuit(t *testing.T) {
	t.Parallel()
	for name, p := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := RunAdaptiveSweep(context.Background(), name, p, Default(), flow.AdaptiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if res.RoutedIterations == 0 || res.RoutedIterations > 3 {
				t.Errorf("adaptive took %d routed iterations, budget is 3", res.RoutedIterations)
			}
			if !res.Converged {
				t.Error("adaptive did not converge on an example circuit")
			}
			for _, w := range []int{1, 4} {
				checks, ok := res.Runs[w]
				if !ok {
					t.Fatalf("no adaptive run for workers=%d", w)
				}
				for _, c := range checks {
					if !c.Report.Proven {
						t.Errorf("workers=%d iteration %d: unproven", w, c.Iteration)
					}
				}
			}
		})
	}
}

// TestAdaptiveSweepRejectsEmptyConfig mirrors the classic harness's
// degenerate-config contract.
func TestAdaptiveSweepRejectsEmptyConfig(t *testing.T) {
	t.Parallel()
	p := corpus(t)["dec24"]
	if p == nil {
		t.Skip("dec24 example missing")
	}
	if _, err := RunAdaptiveSweep(context.Background(), "dec24", p, Config{Ks: []float64{0}}, flow.AdaptiveConfig{}); err == nil {
		t.Error("empty worker list did not error")
	}
}
