package flow

// Closed-loop congestion control. The open-loop methodology sweeps a
// global 14-rung K ladder and picks the best rung; RunAdaptive instead
// closes the loop on the routed congestion map: map once at a low
// uniform baseline K, route, and inflate a spatial K-field (per-gcell
// multipliers, cover/kfield.go) only where the smoothed congestion map
// is over capacity — then re-cover just the partition trees whose
// territory intersects the inflated windows (mapper.MapFieldDelta) and
// re-route, iterating until the design routes, the overflow stops
// improving, or the routed-iteration budget is spent.
//
// Controller law (inflateField): the congestion map is smoothed with a
// 3×3 box filter (one inflation step reaches one gcell beyond the hot
// window — the dilation that lets wires detour around, not just out
// of, a hotspot); a gcell whose smoothed congestion exceeds
// adaptiveTrigger has its multiplier scaled by 1 + adaptiveGain·excess,
// capped at adaptiveMaxMult. Hysteresis: once hot, a cell keeps
// inflating while its smoothed congestion stays above adaptiveTrigger −
// adaptiveHysteresis, so a cell oscillating around the trigger cannot
// stall the loop. Multipliers only ever grow (monotone), and every step
// is a pure function of the previous routed congestion map, so the
// whole loop is deterministic — the differential harness proves
// byte-identical results across worker counts.

import (
	"context"
	"fmt"

	"casyn/internal/cover"
	"casyn/internal/obs"
)

// adaptiveOverflowBounds buckets the per-iteration routed overflow for
// the "flow.adaptive.overflow" histogram.
var adaptiveOverflowBounds = []float64{0, 1, 10, 100, 1000, 10000}

// AdaptiveConfig tunes the closed-loop controller.
type AdaptiveConfig struct {
	// BaseK is the uniform baseline congestion factor the loop starts
	// from (default 0.001, the low end of the paper ladder). It must be
	// positive for the field to have any effect — the field multiplies
	// the K·WIRE term — so 0 takes the default.
	BaseK float64
}

func (c *AdaptiveConfig) defaults() {
	if c.BaseK <= 0 {
		c.BaseK = 0.001
	}
}

// The controller's fixed parameters.
const (
	// adaptiveMaxIterations bounds the routed iterations, each a full
	// map → place → route pass: one baseline plus two controller
	// steps, the paper-motivated budget.
	adaptiveMaxIterations = 3
	// adaptiveTrigger is the smoothed-congestion level at which a
	// gcell's multiplier starts inflating: react just before edges
	// overflow, since the 3×3 smoothing dilutes peaks.
	adaptiveTrigger = 0.9
	// adaptiveHysteresis widens the trigger downward for cells that
	// have already inflated: a hot cell keeps inflating while its
	// smoothed congestion stays above adaptiveTrigger −
	// adaptiveHysteresis.
	adaptiveHysteresis = 0.1
	// adaptiveGain scales each inflation step: mult ← mult·(1 +
	// adaptiveGain·excess) where excess is the congestion signal above
	// the (hysteresis-adjusted) trigger. Calibrated on the congested
	// benchmark suite: strong enough to carry a hot window across the
	// K ladder's decades in two compounding steps, gentle enough not
	// to overshoot into area-driven congestion.
	adaptiveGain = 24
	// adaptiveMaxMult caps multipliers: at the default BaseK the local
	// effective K tops out at 1.0, the top of the paper ladder.
	adaptiveMaxMult = 1000
)

// AdaptiveIteration is one routed iteration of the closed loop: the
// flow iteration plus the controller state that produced it.
type AdaptiveIteration struct {
	Iteration
	// ChangedCells counts the gcells the controller inflated to
	// produce this iteration's field (0 for the baseline iteration).
	ChangedCells int
	// InflatedCells counts the field cells with multiplier > 1;
	// MaxMult is the largest multiplier (1s for the baseline).
	InflatedCells int
	MaxMult       float64
	// DirtyTrees / ReusedTrees count the partition trees re-covered
	// vs carried over by the field delta (baseline covers all trees).
	DirtyTrees  int
	ReusedTrees int
}

// AdaptiveResult is the outcome of the closed loop.
type AdaptiveResult struct {
	Iterations []AdaptiveIteration
	// BestIndex points at the accepted iteration under the sweep's
	// rules: first routable, else minimum violations. -1 when none
	// completed.
	BestIndex int
	// Converged reports the loop stopped on its own — routable,
	// overflow no longer improving, or nothing left above the trigger
	// — rather than exhausting adaptiveMaxIterations.
	Converged bool
	// Field is the final K-field (reporting; nil if the baseline
	// iteration failed before routing).
	Field *cover.KField
}

// Best returns the accepted iteration, nil when none completed.
func (r *AdaptiveResult) Best() *Iteration {
	if r.BestIndex < 0 {
		return nil
	}
	return &r.Iterations[r.BestIndex].Iteration
}

// FoundRoutable reports whether any iteration routed cleanly.
func (r *AdaptiveResult) FoundRoutable() bool {
	return r.BestIndex >= 0 && r.Iterations[r.BestIndex].Routable
}

// RoutedIterations counts completed routed iterations (reporting; the
// convergence tests assert ≤ adaptiveMaxIterations).
func (r *AdaptiveResult) RoutedIterations() int { return len(r.Iterations) }

// RunAdaptive runs the closed-loop congestion controller (see the
// file comment for the loop and the controller law). pc must be
// Prepare'd; when it lacks a compatible mapping prefix, one is built
// on a private copy before the loop. cfg.KSchedule is ignored — the
// loop fixes K at acfg.BaseK and steers the spatial field instead.
//
// The loop is recorded under a "flow.adaptive" span: each routed
// iteration bumps the "flow.adaptive_iterations" counter and lands its
// overflow on the "flow.adaptive.overflow" histogram; each controller
// step runs under a "flow.adaptive.controller" span with
// "flow.adaptive.changed_cells" / "flow.adaptive.dirty_trees"
// counters.
//
// Determinism: with a fixed placement seed the whole loop is a pure
// function of its inputs for any cfg.Workers value — every stage it
// drives is deterministic, and the controller reads only routed state.
func RunAdaptive(ctx context.Context, pc *Context, cfg Config, acfg AdaptiveConfig) (res *AdaptiveResult, err error) {
	acfg.defaults()
	cfg.defaults()
	if pc, err = withPrefix(ctx, pc, cfg); err != nil {
		return nil, err
	}
	rec := obs.From(ctx)
	var span *obs.Span
	ctx, span = rec.StartSpan(ctx, "flow.adaptive")
	span.SetK(acfg.BaseK)
	defer func() { span.End(err) }()
	overflowHist := rec.Histogram("flow.adaptive.overflow", adaptiveOverflowBounds)

	res = &AdaptiveResult{BestIndex: -1}
	record := func(ai AdaptiveIteration) {
		MergeMetrics(ctx, ai.Metrics)
		res.Iterations = append(res.Iterations, ai)
		rec.Add("flow.adaptive_iterations", 1)
		overflowHist.Observe(float64(ai.Violations))
		if beats(&ai.Iteration, res.Best()) {
			res.BestIndex = len(res.Iterations) - 1
		}
	}

	// Baseline iteration: uniform cover at BaseK.
	it, st, routed, err := iterate(ctx, pc, cfg, acfg.BaseK, iterIn{})
	if err != nil {
		MergeMetrics(ctx, it.Metrics)
		return res, fmt.Errorf("flow: adaptive baseline: %w", err)
	}
	record(AdaptiveIteration{Iteration: it, MaxMult: 1})

	grid := routed.Grid
	field, err := cover.NewKField(grid.Origin, grid.CellW, grid.CellH, grid.NX, grid.NY)
	if err != nil {
		return res, err
	}
	res.Field = field
	// hot is the hysteresis memory: cells that have inflated at least
	// once. terr is computed once — the prefix (and so every tree's
	// territory) is fixed across the loop; only the field moves.
	hot := make([]bool, len(field.Mult))
	terr := pc.Prep.TreeTerritories()

	for len(res.Iterations) < adaptiveMaxIterations {
		last := &res.Iterations[len(res.Iterations)-1]
		if last.Routable {
			res.Converged = true
			break
		}
		// Controller step: pure function of the routed congestion map.
		_, cSpan := rec.StartSpan(ctx, "flow.adaptive.controller")
		cong := grid.CongestionMap()
		next := field.Clone()
		changed, nChanged := inflateField(next, cong, hot)
		rec.Add("flow.adaptive.changed_cells", int64(nChanged))
		cSpan.End(nil)
		if nChanged == 0 {
			// Nothing above the trigger (smoothing can dilute isolated
			// overflow below it) or everything at MaxMult: the
			// controller has no lever left.
			res.Converged = true
			break
		}
		dirty := cover.DirtyTreesForField(terr, next, changed)
		nDirty := 0
		for _, d := range dirty {
			if d {
				nDirty++
			}
		}
		rec.Add("flow.adaptive.dirty_trees", int64(nDirty))

		prevViolations := last.Violations
		it, stN, routedN, err := iterate(ctx, pc, cfg, acfg.BaseK,
			iterIn{field: next, fieldPrev: st.Cover, fieldDirty: dirty})
		if err != nil {
			MergeMetrics(ctx, it.Metrics)
			return res, fmt.Errorf("flow: adaptive iteration %d: %w", len(res.Iterations), err)
		}
		record(AdaptiveIteration{
			Iteration:     it,
			ChangedCells:  nChanged,
			InflatedCells: next.InflatedCells(),
			MaxMult:       next.MaxMult(),
			DirtyTrees:    nDirty,
			ReusedTrees:   len(dirty) - nDirty,
		})
		field, st, grid = next, stN, routedN.Grid
		res.Field = field
		if !it.Routable && it.Violations >= prevViolations {
			// Overflow stopped improving: stop and keep the best seen.
			res.Converged = true
			break
		}
	}
	if last := &res.Iterations[len(res.Iterations)-1]; last.Routable {
		res.Converged = true
	}
	return res, nil
}

// inflateField applies one controller step to f in place: smooth the
// congestion map, inflate every cell whose smoothed congestion exceeds
// its (hysteresis-adjusted) trigger, and mark which cells changed.
// cong is indexed [y][x] with f's exact dimensions (both come from the
// same routing-grid geometry). hot is the persistent hysteresis
// memory, updated in place. Returns the row-major changed mask and the
// changed-cell count. Multipliers never decrease, so iterating this
// step yields a monotone non-decreasing field.
func inflateField(f *cover.KField, cong [][]float64, hot []bool) ([]bool, int) {
	sm := smooth3x3(cong, f.NX, f.NY)
	changed := make([]bool, f.NX*f.NY)
	n := 0
	for y := 0; y < f.NY; y++ {
		for x := 0; x < f.NX; x++ {
			i := y*f.NX + x
			trig := adaptiveTrigger
			if hot[i] {
				trig -= adaptiveHysteresis
			}
			// The signal is the larger of the cell's own congestion and
			// its smoothed neighborhood: smoothing dilates hot windows
			// outward, the raw term guarantees an isolated over-capacity
			// cell can never be averaged below the trigger (the
			// controller must always have a lever while overflow > 0).
			sig := sm[i]
			if cong[y][x] > sig {
				sig = cong[y][x]
			}
			excess := sig - trig
			if excess <= 0 {
				continue
			}
			hot[i] = true
			nm := f.Mult[i] * (1 + adaptiveGain*excess)
			if nm > adaptiveMaxMult {
				nm = adaptiveMaxMult
			}
			if nm > f.Mult[i] {
				f.Mult[i] = nm
				changed[i] = true
				n++
			}
		}
	}
	return changed, n
}

// smooth3x3 box-filters the congestion map (border cells average their
// in-bounds neighborhood), returning a row-major nx*ny slice.
func smooth3x3(cong [][]float64, nx, ny int) []float64 {
	out := make([]float64, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			sum, cnt := 0.0, 0
			for dy := -1; dy <= 1; dy++ {
				yy := y + dy
				if yy < 0 || yy >= ny {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					xx := x + dx
					if xx < 0 || xx >= nx {
						continue
					}
					sum += cong[yy][xx]
					cnt++
				}
			}
			out[y*nx+x] = sum / float64(cnt)
		}
	}
	return out
}
