package flow

import (
	"context"
	"fmt"

	"casyn/internal/place"
	"casyn/internal/subject"
)

// RelaxResult is the outcome of RunWithRelaxation: the flow result
// that finally routed (or the last attempt), plus the floorplan
// history.
type RelaxResult struct {
	// Attempts records one flow Result per floorplan tried.
	Attempts []*Result
	// Layouts is the floorplan used by each attempt.
	Layouts []place.Layout
	// Final indexes the accepted attempt (the first routable one, or
	// the last if none routed).
	Final int
}

// Accepted returns the accepted attempt's best iteration and layout.
func (r *RelaxResult) Accepted() (*Iteration, place.Layout) {
	return r.Attempts[r.Final].Best(), r.Layouts[r.Final]
}

// RunWithRelaxation implements the full Figure 3 decision: run the K
// ladder on the given floorplan; if no mapping routes, relax the
// floorplan by adding rows (introducing more wiring resources) and try
// again — re-placing the technology-independent netlist on each new
// floorplan, since the layout image defines the wire costs.
// maxExtraRows bounds the added rows; it must not be negative.
//
// Like Run, relaxation degrades rather than aborting: an attempt whose
// ladder failed entirely is still recorded and the next floorplan is
// tried. A canceled ctx stops the relaxation loop promptly, returning
// the attempts completed so far together with the ctx error.
func RunWithRelaxation(ctx context.Context, d *subject.DAG, cfg Config, maxExtraRows int) (*RelaxResult, error) {
	if maxExtraRows < 0 {
		return nil, fmt.Errorf("flow: relax bound %d rows is negative", maxExtraRows)
	}
	cfg.defaults()
	cfg.StopAtFirstRoutable = true
	res := &RelaxResult{Final: -1}
	base := cfg.Layout
	var lastErr error
	for extra := 0; extra <= maxExtraRows; extra++ {
		if cerr := ctx.Err(); cerr != nil {
			res.Final = len(res.Attempts) - 1
			return res, fmt.Errorf("flow: relax canceled at +%d rows: %w", extra, cerr)
		}
		layout, err := place.LayoutWithRows(base.NumRows+extra, base.Die.W(), base.RowHeight)
		if err != nil {
			return nil, err
		}
		attempt := cfg
		attempt.Layout = layout
		pc, err := Prepare(ctx, d, attempt)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				res.Final = len(res.Attempts) - 1
				return res, fmt.Errorf("flow: relax canceled at +%d rows: %w", extra, cerr)
			}
			lastErr = fmt.Errorf("flow: relax +%d rows: %w", extra, err)
			continue
		}
		fres, err := Run(ctx, pc, attempt)
		if fres != nil {
			res.Attempts = append(res.Attempts, fres)
			res.Layouts = append(res.Layouts, layout)
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				res.Final = len(res.Attempts) - 1
				return res, fmt.Errorf("flow: relax canceled at +%d rows: %w", extra, cerr)
			}
			lastErr = fmt.Errorf("flow: relax +%d rows: %w", extra, err)
			continue
		}
		if fres.FoundRoutable() {
			res.Final = len(res.Attempts) - 1
			return res, nil
		}
	}
	res.Final = len(res.Attempts) - 1
	if len(res.Attempts) == 0 && lastErr != nil {
		return nil, lastErr
	}
	return res, nil
}
