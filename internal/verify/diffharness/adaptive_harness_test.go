package diffharness

// Adaptive-mode differential check, the closed-loop counterpart of
// Run's open-loop K-ladder sweep (RunAdaptiveSweep): every netlist the
// closed loop produces — baseline and each controller step — is proven
// equivalent to the subject DAG, and the whole loop (iteration count,
// controller decisions, routed results) is byte-identical across
// worker counts.

import (
	"context"
	"fmt"

	"casyn"
	"casyn/internal/bnet"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/place"
	"casyn/internal/subject"
	"casyn/internal/verify"
)

// prepareFlow builds the shared front end of a differential run: the
// subject DAG, the calibrated flow config, and the prepared context
// (placement + mapping prefix) every comparison leg reuses.
func prepareFlow(ctx context.Context, name string, p *logic.PLA, cfg Config) (*subject.DAG, *flow.Context, flow.Config, error) {
	n, err := bnet.FromPLA(p)
	if err != nil {
		return nil, nil, flow.Config{}, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	d, err := subject.Decompose(n)
	if err != nil {
		return nil, nil, flow.Config{}, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	util := cfg.Utilization
	if util == 0 {
		util = 0.58
	}
	area := float64(d.BaseGateCount()) * 4.6 / util
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		return nil, nil, flow.Config{}, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	fcfg := casyn.FlowConfig(layout, casyn.Options{Dies: cfg.Dies})
	if cfg.Dies > 1 {
		// An example circuit's die is a handful of gcells, whose derated
		// boundary capacity truncates the derived inter-die pin budget
		// to 0; the harness checks function and determinism, not
		// admission.
		fcfg.RouteOpts.RegionPinBudget = -1
	}
	pc, err := flow.Prepare(ctx, d, fcfg)
	if err != nil {
		return nil, nil, flow.Config{}, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	if err := flow.PrepareMapping(ctx, pc, fcfg); err != nil {
		return nil, nil, flow.Config{}, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	return d, pc, fcfg, nil
}

// AdaptiveCheck is the verdict for one routed iteration of one
// adaptive run.
type AdaptiveCheck struct {
	Iteration int
	// Report proves the iteration's netlist equivalent to the subject.
	Report *verify.Report
	// Fingerprint is the iteration fingerprint (Verilog + metrics row).
	Fingerprint string
}

// AdaptiveSweepResult is a completed adaptive differential run.
type AdaptiveSweepResult struct {
	Name string
	// Runs maps each worker count to its per-iteration checks.
	Runs map[int][]AdaptiveCheck
	// Converged / RoutedIterations / Best describe the first worker
	// count's run (all counts are identical — the sweep errors
	// otherwise); Best is its accepted iteration.
	Converged        bool
	RoutedIterations int
	Best             *flow.Iteration
}

// RunAdaptiveSweep drives one circuit through flow.RunAdaptive at
// every worker count: every iteration's netlist is proven equivalent
// to the subject DAG, and all counts must produce byte-identical
// loops — same iteration count, same per-iteration fingerprints. The
// loop runs with seeded placement (the controller's operating mode).
func RunAdaptiveSweep(ctx context.Context, name string, p *logic.PLA, cfg Config, acfg flow.AdaptiveConfig) (*AdaptiveSweepResult, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("diffharness: %s: empty worker list", name)
	}
	d, pc, fcfg, err := prepareFlow(ctx, name, p, cfg)
	if err != nil {
		return nil, err
	}
	fcfg.FreshPlacement = false
	res := &AdaptiveSweepResult{Name: name, Runs: make(map[int][]AdaptiveCheck)}
	for _, w := range cfg.Workers {
		wcfg := fcfg
		wcfg.Workers = w
		ares, err := flow.RunAdaptive(ctx, pc, wcfg, acfg)
		if err != nil {
			return nil, fmt.Errorf("diffharness: %s adaptive workers=%d: %w", name, w, err)
		}
		if len(ares.Iterations) == 0 {
			return nil, fmt.Errorf("diffharness: %s adaptive workers=%d: no iterations", name, w)
		}
		checks := make([]AdaptiveCheck, 0, len(ares.Iterations))
		for i := range ares.Iterations {
			it := &ares.Iterations[i].Iteration
			rep, err := prove(ctx, name, fmt.Sprintf("dag vs adaptive netlist (iteration %d, workers=%d)", i, w),
				d, it.Netlist, cfg.Verify)
			if err != nil {
				return nil, err
			}
			fp, err := fingerprint(it)
			if err != nil {
				return nil, fmt.Errorf("diffharness: %s adaptive workers=%d iteration %d: %w", name, w, i, err)
			}
			checks = append(checks, AdaptiveCheck{Iteration: i, Report: rep, Fingerprint: fp})
		}
		res.Runs[w] = checks
		if w == cfg.Workers[0] {
			res.Converged = ares.Converged
			res.RoutedIterations = ares.RoutedIterations()
			res.Best = ares.Best()
		}
	}
	base := res.Runs[cfg.Workers[0]]
	for _, w := range cfg.Workers[1:] {
		if len(res.Runs[w]) != len(base) {
			return nil, fmt.Errorf("diffharness: %s adaptive: workers=%d took %d iterations, workers=%d took %d",
				name, w, len(res.Runs[w]), cfg.Workers[0], len(base))
		}
		for i, c := range res.Runs[w] {
			if c.Fingerprint != base[i].Fingerprint {
				return nil, fmt.Errorf(
					"diffharness: %s adaptive iteration %d: workers=%d diverges from workers=%d (fingerprint %s vs %s)",
					name, i, w, cfg.Workers[0], c.Fingerprint, base[i].Fingerprint)
			}
		}
	}
	return res, nil
}
