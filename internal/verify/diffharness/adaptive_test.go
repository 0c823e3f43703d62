package diffharness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"casyn"
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

// TestAdaptiveDiesSweepEveryExampleCircuit: the closed loop over a
// k-way prefix of 2 and 4 dies on every example circuit, workers 1 vs
// 4 — every iteration proven equivalent to the subject (the replicated
// DAG's source, so replication is covered too), the loop
// byte-identical across worker counts, and the accepted netlist the
// one casyn.Synthesize returns for Adaptive with Dies.
func TestAdaptiveDiesSweepEveryExampleCircuit(t *testing.T) {
	t.Parallel()
	for name, p := range corpus(t) {
		for _, dies := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/dies=%d", name, dies), func(t *testing.T) {
				t.Parallel()
				cfg := Default()
				cfg.Dies = dies
				res, err := RunAdaptiveSweep(context.Background(), name, p, cfg, flow.AdaptiveConfig{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := casyn.Synthesize(p, casyn.Options{Adaptive: true, Dies: dies, InterDiePinBudget: -1, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				var got, ref strings.Builder
				if err := res.Best.Netlist.WriteVerilog(&got, "dut"); err != nil {
					t.Fatal(err)
				}
				if err := want.Mapped.WriteVerilog(&ref, "dut"); err != nil {
					t.Fatal(err)
				}
				if got.String() != ref.String() || want.AdaptiveIterations != res.RoutedIterations {
					t.Errorf("casyn.Synthesize (%d iterations) differs from the flow (%d iterations)",
						want.AdaptiveIterations, res.RoutedIterations)
				}
				for _, w := range []int{1, 4} {
					checks, ok := res.Runs[w]
					if !ok || len(checks) == 0 {
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
