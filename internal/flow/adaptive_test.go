package flow

// Convergence regression for the closed-loop congestion controller
// (adaptive.go) and its differential guarantees. The flagship
// configurations are congested operating points (seeded placement,
// reduced routing capacity) where the baseline K is unroutable; the
// regression pins that the controller converges within its 3-routed-
// iteration budget and ends no worse than the best rung of the full
// 14-rung open-loop ladder — at a fraction of the covering work.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/mapper"
	"casyn/internal/obs"
	"casyn/internal/verify"
)

// adaptiveCase is one congested operating point. The expectations were
// calibrated once and are pinned as regressions: these are exactly the
// regimes where closed-loop control pays for itself.
type adaptiveCase struct {
	class     bench.Class
	tightness float64
	capScale  float64
}

func (c adaptiveCase) name() string {
	if c.capScale == 1.1 {
		return c.class.String() + "-t55-cs11"
	}
	if c.tightness == 0.45 {
		return c.class.String() + "-t45-cs13"
	}
	return c.class.String() + "-t55-cs13"
}

// adaptiveCases are the flagship convergence configs. Seeded placement
// (FreshPlacement=false) is essential: the controller's feedback is
// region-local, and a fresh anneal per iteration would reshuffle the
// whole placement out from under the inflated windows.
var adaptiveCases = []adaptiveCase{
	{bench.SPLA, 0.45, 1.3},
	{bench.SPLA, 0.55, 1.3},
	{bench.PDC, 0.55, 1.1},
}

func (c adaptiveCase) prepare(t *testing.T) (*Context, Config) {
	t.Helper()
	pc, cfg := preparedClass(t, c.class, c.tightness)
	cfg.RouteOpts.CapacityScale = c.capScale
	cfg.FreshPlacement = false
	cfg.Workers = 4
	return pc, cfg
}

// TestAdaptiveConvergence is the satellite-3 regression: on each
// congested config the closed loop must converge within its routed
// budget and end with overflow no worse than the best rung the full
// open-loop ladder finds, in at most a third of its covering
// iterations.
func TestAdaptiveConvergence(t *testing.T) {
	for _, tc := range adaptiveCases {
		tc := tc
		t.Run(tc.name(), func(t *testing.T) {
			t.Parallel()
			pc, cfg := tc.prepare(t)

			lcfg := cfg
			lcfg.KSchedule = DefaultKSchedule()
			ladder, err := Run(context.Background(), pc, lcfg)
			if err != nil {
				t.Fatal(err)
			}
			lbest := ladder.Best()
			if lbest == nil {
				t.Fatal("ladder produced no iterations")
			}

			res, err := RunAdaptive(context.Background(), pc, cfg, AdaptiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if res.RoutedIterations() > 3 {
				t.Errorf("adaptive used %d routed iterations, budget is 3", res.RoutedIterations())
			}
			if !res.Converged {
				t.Error("adaptive did not converge within its budget")
			}
			abest := res.Best()
			if abest == nil {
				t.Fatal("adaptive produced no iterations")
			}
			t.Logf("ladder best K=%g failed=%d overflow=%d over %d rungs; adaptive failed=%d overflow=%d in %d iterations",
				lbest.K, lbest.FailedConnections, lbest.Overflow, len(ladder.Iterations),
				abest.FailedConnections, abest.Overflow, res.RoutedIterations())
			if lbest.Routable && !abest.Routable {
				t.Errorf("ladder routed (K=%g) but adaptive did not (failed=%d)", lbest.K, abest.FailedConnections)
			}
			if abest.FailedConnections > lbest.FailedConnections {
				t.Errorf("adaptive accepted %d failed connections, worse than the best ladder rung's %d",
					abest.FailedConnections, lbest.FailedConnections)
			}
			// ≥3× fewer covering iterations than the 14-rung ladder.
			if got := res.RoutedIterations() * 3; got > len(ladder.Iterations) {
				t.Errorf("adaptive used %d covering iterations, not ≥3× fewer than the %d-rung ladder",
					res.RoutedIterations(), len(ladder.Iterations))
			}
			// The controller must actually act on these congested configs.
			if len(res.Iterations) > 1 {
				it1 := res.Iterations[1]
				if it1.ChangedCells == 0 || it1.InflatedCells == 0 {
					t.Error("controller inflated nothing on a congested config")
				}
				if it1.MaxMult <= 1 {
					t.Errorf("field MaxMult %g after inflation", it1.MaxMult)
				}
			}
		})
	}
}

// TestAdaptiveBeatsLadderOnFlagship pins the headline result: on
// SPLA tightness 0.55 / capacity 1.3 the closed loop reaches a
// routable design while the entire 14-rung ladder never does.
func TestAdaptiveBeatsLadderOnFlagship(t *testing.T) {
	t.Parallel()
	pc, cfg := adaptiveCase{bench.SPLA, 0.55, 1.3}.prepare(t)
	res, err := RunAdaptive(context.Background(), pc, cfg, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best() == nil {
		t.Fatal("adaptive produced no best iteration")
	}
	if !res.Best().Routable {
		t.Fatalf("adaptive failed to route the flagship config (best failed=%d over %d iterations)",
			res.Best().FailedConnections, res.RoutedIterations())
	}
	if res.RoutedIterations() > 2 {
		t.Errorf("flagship config routed in %d iterations, regression baseline is 2", res.RoutedIterations())
	}
}

// TestAdaptiveDeterministic: repeat runs are byte-identical, including
// every controller decision — the loop is a pure function of its
// inputs (satellite 3's seeded-determinism clause).
func TestAdaptiveDeterministic(t *testing.T) {
	t.Parallel()
	pc, cfg := adaptiveCase{bench.SPLA, 0.55, 1.3}.prepare(t)
	a, err := RunAdaptive(context.Background(), pc, cfg, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdaptive(context.Background(), pc, cfg, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sameAdaptive(t, "repeat", a, b)
}

// TestAdaptiveWorkerIndependence: the whole closed loop — controller
// decisions included — is byte-identical at 1 and 8 workers.
func TestAdaptiveWorkerIndependence(t *testing.T) {
	t.Parallel()
	pc, cfg := adaptiveCase{bench.SPLA, 0.55, 1.3}.prepare(t)
	serial := cfg
	serial.Workers = 1
	a, err := RunAdaptive(context.Background(), pc, serial, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.Workers = 8
	b, err := RunAdaptive(context.Background(), pc, wide, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sameAdaptive(t, "workers-1-vs-8", a, b)
}

// sameAdaptive asserts two adaptive runs are identical: per-iteration
// flow results, controller decisions, convergence verdicts, and final
// fields.
func sameAdaptive(t *testing.T, tag string, a, b *AdaptiveResult) {
	t.Helper()
	if len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("%s: %d vs %d iterations", tag, len(a.Iterations), len(b.Iterations))
	}
	for i := range a.Iterations {
		ai, bi := a.Iterations[i], b.Iterations[i]
		sameIteration(t, tag, ai.Iteration, bi.Iteration)
		if ai.ChangedCells != bi.ChangedCells || ai.InflatedCells != bi.InflatedCells ||
			ai.MaxMult != bi.MaxMult {
			t.Errorf("%s: iteration %d controller state diverged:\n%+v\n%+v", tag, i, ai, bi)
		}
	}
	if a.BestIndex != b.BestIndex || a.Converged != b.Converged {
		t.Errorf("%s: verdicts diverged: best %d/%d converged %v/%v",
			tag, a.BestIndex, b.BestIndex, a.Converged, b.Converged)
	}
	af, bf := a.State.Cover.Field(), b.State.Cover.Field()
	if (af == nil) != (bf == nil) {
		t.Fatalf("%s: field presence differs", tag)
	}
	if af != nil {
		if len(af.Mult) != len(bf.Mult) {
			t.Fatalf("%s: field shapes differ", tag)
		}
		for i := range af.Mult {
			if af.Mult[i] != bf.Mult[i] {
				t.Fatalf("%s: field cell %d: %g vs %g", tag, i, af.Mult[i], bf.Mult[i])
			}
		}
	}
}

// TestAdaptiveBaselineMatchesStateful: the loop's first iteration is
// the plain uniform cover at BaseK — byte-identical to RunStateful —
// so the controller's deltas chain off the classic path.
func TestAdaptiveBaselineMatchesStateful(t *testing.T) {
	t.Parallel()
	pc, cfg := adaptiveCase{bench.SPLA, 0.55, 1.3}.prepare(t)
	acfg := AdaptiveConfig{}
	acfg.defaults()
	it, _, err := RunStateful(context.Background(), pc, acfg.BaseK, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAdaptive(context.Background(), pc, cfg, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sameIteration(t, "baseline", it, res.Iterations[0].Iteration)
}

// TestAdaptiveECOChain: an ECO chains from AdaptiveResult.State, the
// accepted iteration's state, and re-covers under that iteration's
// K-field. Each exact edit of a 3-edit chain is byte-identical to the
// reference, a full cover of the edited design under that field,
// placed and routed the same way, at 1 and 4 workers. On some edit the field changes the netlist,
// so the chain is not a fixed-K rerun. The state carries the accepted
// iteration's routing, so a fast-mode chain from it reroutes
// incrementally from its first edit; it stays equivalent to its edited
// subject and byte-identical at 1 and 4 workers.
func TestAdaptiveECOChain(t *testing.T) {
	fieldMatters := 0
	for _, tc := range adaptiveCases {
		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("%s workers=%d", tc.name(), workers)
			pc, cfg := tc.prepare(t)
			cfg.Workers = workers
			ctx := context.Background()
			ares, err := RunAdaptive(ctx, pc, cfg, AdaptiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// The accepted iteration's field: nil for the uniform
			// baseline, the steered field of any later iteration.
			field := ares.State.Cover.Field()
			if (ares.BestIndex == 0) != (field == nil) {
				t.Fatalf("%s: accepted iteration %d of %d carries field %v", tag, ares.BestIndex, len(ares.Iterations), field != nil)
			}
			st := ares.State
			if st.K != 0.001 || st.Route == nil {
				t.Fatalf("%s: state K=%g route=%v, want the baseline K and a routing state", tag, st.K, st.Route != nil)
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 3; i++ {
				edits := mapper.RandomEdits(st.Prep, rng, 3)
				it, next, err := RunECO(ctx, pc, st, edits, cfg)
				if err != nil {
					t.Fatalf("%s edit %d: %v", tag, i, err)
				}
				eco, err := st.Prep.Invalidate(ctx, edits)
				if err != nil {
					t.Fatal(err)
				}
				edited := *pc
				edited.Prep = eco.Prep
				uniform, _, err := mapper.MapStateful(ctx, edited.Prep, st.K, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref, _, _, err := iterate(ctx, &edited, cfg, st.K, iterIn{field: field})
				if err != nil {
					t.Fatal(err)
				}
				sameIteration(t, fmt.Sprintf("%s edit %d", tag, i), it, ref)
				if !reflect.DeepEqual(uniform.Netlist, it.Netlist) {
					fieldMatters++
				}
				st = next
			}
		}
	}
	if fieldMatters == 0 {
		t.Fatal("no accepted K-field changed an ECO; the chain is indistinguishable from a fixed-K rerun")
	}

	fastChain := func(workers int) []Iteration {
		pc, cfg := adaptiveCases[0].prepare(t)
		cfg.FastECORoute = true
		cfg.Workers = workers
		ctx := obs.WithRecorder(context.Background(), obs.New())
		ares, err := RunAdaptive(ctx, pc, cfg, AdaptiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var out []Iteration
		st, rng := ares.State, rand.New(rand.NewSource(5))
		for i := 0; i < 3; i++ {
			it, next, err := RunECO(ctx, pc, st, mapper.RandomEdits(st.Prep, rng, 1), cfg)
			if err != nil {
				t.Fatalf("workers=%d fast edit %d: %v", workers, i, err)
			}
			if c := it.Metrics.Events.Counters; c["eco.route_nets_kept"] == 0 {
				t.Errorf("workers=%d fast edit %d: route_nets_kept=0, want an incremental reroute", workers, i)
			}
			rep, err := verify.Equivalent(ctx, next.Prep.DAG(), it.Netlist, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Equivalent {
				t.Fatalf("workers=%d fast edit %d: netlist differs from its edited subject: %s", workers, i, rep)
			}
			out = append(out, it)
			st = next
		}
		return out
	}
	serial, parallel := fastChain(1), fastChain(4)
	for i := range serial {
		sameIteration(t, fmt.Sprintf("fast edit %d", i), serial[i], parallel[i])
	}
}

// TestECORefusesMultiDie: the ECO chain is single-die, because the
// mapper cannot re-partition the k-way forest after an edit
// (mapper.ErrForestNotRepartitionable). RunStateful on a multi-die run
// and RunECO from a multi-die adaptive state are errors, not a
// silently single-die successor.
func TestECORefusesMultiDie(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.Dies = 2
	cfg.RouteOpts.RegionPinBudget = -1
	ctx := context.Background()
	if err := PrepareMapping(ctx, pc, cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunStateful(ctx, pc, 0.001, cfg); err == nil {
		t.Error("RunStateful on a 2-die run: no error")
	}
	ares, err := RunAdaptive(ctx, pc, cfg, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	edits := mapper.RandomEdits(ares.State.Prep, rand.New(rand.NewSource(1)), 1)
	if _, _, err := RunECO(ctx, pc, ares.State, edits, cfg); err == nil {
		t.Error("RunECO from a 2-die adaptive state: no error")
	}
}
