package flow_test

import (
	"context"
	"reflect"
	"testing"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/mapper"
)

// TestAdaptiveFieldOfEarlierIteration: when the loop stops after an
// iteration worse than an earlier one, the accepted state's cover
// carries the accepted iteration's field, not the last one's. Scaled
// SPLA on two dies at 11,400 µm² accepts the middle of three routed
// iterations, with the router as it is and with rip-up skipping
// segments earlier reroutes relieved; covering the prefix at the loop's
// K under Field must reproduce the accepted netlist, which differs from
// the last iteration's.
func TestAdaptiveFieldOfEarlierIteration(t *testing.T) {
	p, err := bench.Generate(bench.SPLA.ScaledSpec(0.1))
	if err != nil {
		t.Fatal(err)
	}
	opts := casyn.Options{Adaptive: true, Dies: 2, DieArea: 11400}
	ctx := context.Background()
	dag, err := casyn.SubjectFor(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := casyn.FlowConfig(layout, opts)
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
		t.Fatal(err)
	}
	ares, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := ares.RoutedIterations()
	if ares.BestIndex <= 0 || ares.BestIndex >= n-1 {
		t.Fatalf("accepted iteration %d of %d; the case needs a steered iteration before the last", ares.BestIndex, n)
	}
	best := ares.Best()
	if reflect.DeepEqual(best.Netlist, ares.Iterations[n-1].Netlist) {
		t.Fatal("the accepted and the last iteration mapped the same netlist; their fields cannot be told apart")
	}
	field := ares.State.Cover.Field()
	if field == nil {
		t.Fatal("a steered accepted iteration reports no field")
	}
	k := ares.State.K
	res, _, err := mapper.MapStateful(ctx, pc.Prep, k, field)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Netlist, best.Netlist) {
		t.Error("covering under Field does not reproduce the accepted iteration's netlist")
	}
}
