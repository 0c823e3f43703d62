package flow

// Closed-loop congestion control. The open-loop methodology sweeps a
// global 14-rung K ladder and picks the best rung; RunAdaptive instead
// closes the loop on the routed congestion map: map once at a low
// uniform baseline K, route, and inflate a spatial K-field (per-gcell
// multipliers, cover/kfield.go) only where the smoothed congestion map
// is over capacity — then re-cover the whole prefix under the new field
// through the mapper call the baseline makes (mapper.MapStateful) and
// re-route, iterating until the design routes, the failed connections
// stop improving, or the routed-iteration budget is spent.
//
// Each step is a full cover. A tree-level delta would re-cover only
// the partition trees whose inputs the changed gcells reach, but at
// paper scale that is every tree: on full-size SPLA and PDC under the
// facade's adaptive configuration, every steered step reached all 46
// and all 40 trees.
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
	// from. It must be positive for the field to have any effect — the
	// field multiplies the K·WIRE term — so 0 takes
	// DefaultAdaptiveBaseK.
	BaseK float64
}

// DefaultAdaptiveBaseK is the BaseK a zero AdaptiveConfig runs with,
// the low end of the paper ladder.
const DefaultAdaptiveBaseK = 0.001

func (c *AdaptiveConfig) defaults() {
	if c.BaseK <= 0 {
		c.BaseK = DefaultAdaptiveBaseK
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
}

// AdaptiveResult is the outcome of the closed loop.
type AdaptiveResult struct {
	Iterations []AdaptiveIteration
	// BestIndex points at the accepted iteration under the sweep's
	// rule: the first with the fewest failed connections. -1 when none
	// completed.
	BestIndex int
	// Converged reports the loop stopped on its own — routable, failed
	// connections no longer improving, or nothing left above the
	// trigger — rather than exhausting adaptiveMaxIterations.
	Converged bool
	// State is the ECO state of the accepted iteration (BestIndex), so
	// an ECO chains from the design the loop reported: its cover
	// carries the K-field it was covered under, which RunECO re-covers
	// the dirtied trees with, and its K is BaseK. Its routing state
	// lets a fast-mode edit reroute incrementally from the first edit.
	State *ECOState
}

// Best returns the accepted iteration, nil when none completed.
func (r *AdaptiveResult) Best() *Iteration {
	if r.BestIndex < 0 {
		return nil
	}
	return &r.Iterations[r.BestIndex].Iteration
}

// RoutedIterations counts completed routed iterations (reporting; the
// convergence tests assert ≤ adaptiveMaxIterations).
func (r *AdaptiveResult) RoutedIterations() int { return len(r.Iterations) }

// RunAdaptive runs the closed-loop congestion controller (see the
// file comment for the loop and the controller law). pc must be
// Prepare'd; when it lacks a compatible mapping prefix, one is built
// on a private copy before the loop. cfg.KSchedule is ignored — the
// loop fixes K at acfg.BaseK and steers the spatial field instead —
// and so is cfg.FreshPlacement: every iteration places seeded, because
// a fresh placement per iteration would reshuffle the cells out from
// under the inflated windows. A multi-die context runs the same loop
// over its k-way prefix, routed with the die regions.
//
// The loop is recorded under a "flow.adaptive" span: each routed
// iteration bumps the "flow.adaptive_iterations" counter and lands its
// overflow on the "flow.adaptive.overflow" histogram; each controller
// step runs under a "flow.adaptive.controller" span with a
// "flow.adaptive.changed_cells" counter.
//
// Determinism: with a fixed placement seed the whole loop is a pure
// function of its inputs for any cfg.Workers value — every stage it
// drives is deterministic, and the controller reads only routed state.
func RunAdaptive(ctx context.Context, pc *Context, cfg Config, acfg AdaptiveConfig) (res *AdaptiveResult, err error) {
	acfg.defaults()
	cfg.defaults()
	cfg.FreshPlacement = false
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
	record := func(ai AdaptiveIteration, st *ECOState) {
		res.Iterations = append(res.Iterations, ai)
		rec.Add("flow.adaptive_iterations", 1)
		overflowHist.Observe(float64(ai.Overflow))
		if beats(&ai.Iteration, res.Best()) {
			res.BestIndex = len(res.Iterations) - 1
			res.State = st
		}
	}

	// Baseline iteration: uniform cover at BaseK.
	it, st, routed, err := iterate(ctx, pc, cfg, acfg.BaseK, iterIn{})
	if err != nil {
		return res, fmt.Errorf("flow: adaptive baseline: %w", err)
	}
	record(AdaptiveIteration{Iteration: it, MaxMult: 1}, st)

	grid := routed.Grid
	field, err := cover.NewKField(grid.Origin, grid.CellW, grid.CellH, grid.NX, grid.NY)
	if err != nil {
		return res, err
	}
	// hot is the hysteresis memory: cells that have inflated at least
	// once.
	hot := make([]bool, len(field.Mult))

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
		nChanged := inflateField(next, cong, hot)
		rec.Add("flow.adaptive.changed_cells", int64(nChanged))
		cSpan.End(nil)
		if nChanged == 0 {
			// Nothing above the trigger (smoothing can dilute isolated
			// overflow below it) or everything at MaxMult: the
			// controller has no lever left.
			res.Converged = true
			break
		}
		prevFailed := last.FailedConnections
		it, stN, routedN, err := iterate(ctx, pc, cfg, acfg.BaseK, iterIn{field: next})
		if err != nil {
			return res, fmt.Errorf("flow: adaptive iteration %d: %w", len(res.Iterations), err)
		}
		record(AdaptiveIteration{
			Iteration:     it,
			ChangedCells:  nChanged,
			InflatedCells: next.InflatedCells(),
			MaxMult:       next.MaxMult(),
		}, stN)
		field, grid = next, routedN.Grid
		if !it.Routable && it.FailedConnections >= prevFailed {
			// Failed connections stopped improving: stop and keep the
			// best seen.
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
// its (hysteresis-adjusted) trigger, and count the cells that changed.
// cong is indexed [y][x] with f's exact dimensions (both come from the
// same routing-grid geometry). hot is the persistent hysteresis
// memory, updated in place. Multipliers never decrease, so iterating
// this step yields a monotone non-decreasing field.
func inflateField(f *cover.KField, cong [][]float64, hot []bool) int {
	sm := smooth3x3(cong, f.NX, f.NY)
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
				n++
			}
		}
	}
	return n
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
