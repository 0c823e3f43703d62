package experiments

// Adaptive-vs-ladder comparison: the closed-loop congestion controller
// (flow.RunAdaptive) against the paper's open-loop 14-rung K ladder on
// the same congested operating point. The ladder spends one full
// map/place/route iteration per rung and picks the best; the
// controller spends one baseline iteration plus at most two steered
// steps. The comparison runs with seeded placement — the controller's
// operating mode, where its region-local feedback is meaningful — and
// both arms share the identical prepared context.

import (
	"context"
	"fmt"
	"io"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/place"
)

// AdaptiveVsLadderResult is the full comparison on one operating
// point.
type AdaptiveVsLadderResult struct {
	Class  bench.Class
	Layout place.Layout
	// Ladder is the open-loop table (one iteration per K rung) and
	// LadderBest the index of its accepted rung.
	Ladder     []flow.Iteration
	LadderBest int
	// Adaptive is the closed-loop trajectory and AdaptiveBest the index
	// of its accepted iteration.
	Adaptive     []flow.AdaptiveIteration
	AdaptiveBest int
	Converged    bool
}

// CoveringIterationsSaved reports the headline ratio: full
// map/place/route iterations the ladder spent per iteration the
// closed loop spent.
func (r *AdaptiveVsLadderResult) CoveringIterationsSaved() float64 {
	if len(r.Adaptive) == 0 {
		return 0
	}
	return float64(len(r.Ladder)) / float64(len(r.Adaptive))
}

// AdaptiveVsLadder runs both arms on one congested operating point:
// the class circuit at the given scale, die sized so the mapped cells
// sit at ~tightness utilization, and router capacity scaled by
// capacityScale (the congestion knob — below the calibrated 1.98 the
// die congests and K begins to matter). Both arms run with seeded
// placement from one shared prepared context, so every difference in
// the tables is attributable to how K is chosen, not to placement
// noise.
func AdaptiveVsLadder(ctx context.Context, class bench.Class, scale, tightness, capacityScale float64, workers int) (*AdaptiveVsLadderResult, error) {
	if tightness <= 0 || tightness >= 1 {
		return nil, fmt.Errorf("experiments: tightness %g outside (0,1)", tightness)
	}
	d, err := buildSubject(class, scale, bench.Direct)
	if err != nil {
		return nil, err
	}
	area := float64(d.BaseGateCount()) * 4.6 / tightness
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		return nil, err
	}
	cfg := casyn.FlowConfig(layout, casyn.Options{Workers: workers})
	if capacityScale > 0 {
		cfg.RouteOpts.CapacityScale = capacityScale
	}
	cfg.FreshPlacement = false
	cfg.KSchedule = flow.DefaultKSchedule()
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
		return nil, fmt.Errorf("experiments: %s adaptive-vs-ladder: %w", class, err)
	}
	res := &AdaptiveVsLadderResult{Class: class, Layout: layout}

	fres, err := flow.Run(ctx, pc, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s ladder arm: %w", class, err)
	}
	res.Ladder, res.LadderBest = fres.Iterations, fres.BestIndex

	ares, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s adaptive arm: %w", class, err)
	}
	res.Adaptive, res.AdaptiveBest, res.Converged = ares.Iterations, ares.BestIndex, ares.Converged
	return res, nil
}

// WriteTable renders the comparison in the style of the paper's
// tables: the full open-loop ladder, then the closed-loop trajectory
// with its controller columns, then the verdict line.
func (r *AdaptiveVsLadderResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%s adaptive vs ladder — die %.0f µm², %d rows\n\n", r.Class, r.Layout.Area(), r.Layout.NumRows)
	fmt.Fprintf(w, "open-loop ladder (%d rungs):\n", len(r.Ladder))
	fmt.Fprintf(w, "  %-9s %-12s %-9s %-8s %-10s\n", "K", "Cell Area", "Cells", "Util%", "Violations")
	for i, row := range r.Ladder {
		mark := " "
		if i == r.LadderBest {
			mark = "*"
		}
		if row.Err != nil {
			fmt.Fprintf(w, " %s%-9g FAILED: %v\n", mark, row.K, row.Err)
			continue
		}
		fmt.Fprintf(w, " %s%-9g %-12.0f %-9d %-8.2f %-10d\n",
			mark, row.K, row.CellArea, row.NumCells, row.Utilization*100, row.FailedConnections)
	}
	fmt.Fprintf(w, "\nclosed loop (%d routed iterations, converged=%v):\n", len(r.Adaptive), r.Converged)
	fmt.Fprintf(w, "  %-4s %-12s %-9s %-8s %-10s %-8s %-9s\n",
		"it", "Cell Area", "Cells", "Util%", "Violations", "MaxMult", "Inflated")
	for i, row := range r.Adaptive {
		mark := " "
		if i == r.AdaptiveBest {
			mark = "*"
		}
		fmt.Fprintf(w, " %s%-4d %-12.0f %-9d %-8.2f %-10d %-8.1f %d\n",
			mark, i, row.CellArea, row.NumCells, row.Utilization*100,
			row.FailedConnections, row.MaxMult, row.InflatedCells)
	}
	fmt.Fprintf(w, "\ncovering iterations: ladder %d, adaptive %d (%.1fx fewer)\n",
		len(r.Ladder), len(r.Adaptive), r.CoveringIterationsSaved())
}
