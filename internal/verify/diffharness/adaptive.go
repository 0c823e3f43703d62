package diffharness

// Adaptive-mode differential checks, the closed-loop counterpart of
// Run's open-loop K-ladder sweep:
//
//  1. Uniform-field reduction (RunUniformField). Mapping under a
//     K-field whose every multiplier is exactly 1.0 must be
//     byte-identical to the classic global-K mapping, per circuit and
//     per K — the property that makes the K-field a strict
//     generalization of the paper's Eq. 5 cost instead of a fork.
//
//  2. Adaptive sweep (RunAdaptiveSweep). Every netlist the closed
//     loop produces — baseline and each controller step — is proven
//     equivalent to the subject DAG, and the whole loop (iteration
//     count, controller decisions, routed results) is byte-identical
//     across worker counts.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"casyn/internal/bnet"
	"casyn/internal/cover"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/mapper"
	"casyn/internal/place"
	"casyn/internal/route"
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
	fcfg := flow.Config{
		Layout:         layout,
		PlaceOpts:      place.Options{Seed: 1, RefinePasses: 8},
		RouteOpts:      route.Options{GCellSize: 26.6, RipupIterations: 6, CapacityScale: 1.98},
		FreshPlacement: true,
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

// UniformFieldCheck is the verdict for one K of the uniform-field
// reduction: the classic and uniform-field fingerprints (equal by
// construction — RunUniformField errors otherwise).
type UniformFieldCheck struct {
	K           float64
	Fingerprint string
}

// RunUniformField proves the uniform-field reduction on one circuit:
// for every K in cfg.Ks, mapping under an all-1.0 K-field produces a
// mapped netlist and covering metrics byte-identical to the classic
// global-K mapping. Any divergence is an error.
func RunUniformField(ctx context.Context, name string, p *logic.PLA, cfg Config) ([]UniformFieldCheck, error) {
	if len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("diffharness: %s: empty K schedule", name)
	}
	_, pc, fcfg, err := prepareFlow(ctx, name, p, cfg)
	if err != nil {
		return nil, err
	}
	// The field geometry is arbitrary for a uniform field (every sample
	// returns 1.0 regardless of which cell a span lands in); a 16×16
	// grid over the die exercises the sampling anyway.
	die := fcfg.Layout.Die
	field, err := cover.NewKField(die.Min, die.W()/16, die.H()/16, 16, 16)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	checks := make([]UniformFieldCheck, 0, len(cfg.Ks))
	for _, k := range cfg.Ks {
		classic, _, err := mapper.MapStateful(ctx, pc.Prep, k)
		if err != nil {
			return nil, fmt.Errorf("diffharness: %s K=%g: classic map: %w", name, k, err)
		}
		uniform, _, err := mapper.MapWithField(ctx, pc.Prep, k, field)
		if err != nil {
			return nil, fmt.Errorf("diffharness: %s K=%g: uniform-field map: %w", name, k, err)
		}
		cfp, err := mapFingerprint(classic)
		if err != nil {
			return nil, fmt.Errorf("diffharness: %s K=%g: %w", name, k, err)
		}
		ufp, err := mapFingerprint(uniform)
		if err != nil {
			return nil, fmt.Errorf("diffharness: %s K=%g: %w", name, k, err)
		}
		if cfp != ufp {
			return nil, fmt.Errorf(
				"diffharness: %s K=%g: uniform K-field diverges from classic global K (fingerprint %s vs %s)",
				name, k, ufp, cfp)
		}
		checks = append(checks, UniformFieldCheck{K: k, Fingerprint: cfp})
	}
	return checks, nil
}

// mapFingerprint hashes a mapping result: the exported Verilog, every
// instance's committed position, and the covering metrics. Equal
// fingerprints mean bitwise-equal mapped designs.
func mapFingerprint(res *mapper.Result) (string, error) {
	var sb strings.Builder
	if err := res.Netlist.WriteVerilog(&sb, "dut"); err != nil {
		return "", err
	}
	for i := range res.Netlist.Instances {
		fmt.Fprintf(&sb, "%d %v\n", i, res.Netlist.Instances[i].Pos)
	}
	fmt.Fprintf(&sb, "cells=%d area=%.9f dup=%d\n", res.NumCells, res.CellArea, res.DuplicatedCells)
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:]), nil
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
	// Converged / RoutedIterations describe the first worker count's
	// run (all counts are identical — the sweep errors otherwise).
	Converged        bool
	RoutedIterations int
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
