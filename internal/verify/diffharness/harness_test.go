// Package diffharness is the differential test harness for the
// synthesis pipeline: it drives a circuit through every representation
// the flow produces — two-level PLA, Boolean network, decomposed
// subject DAG, mapped netlist — and proves each hand-off preserved the
// function, across a ladder of congestion factors K and across worker
// counts.
//
// Two properties are checked:
//
//  1. Function preservation. The front end (network construction and
//     NAND2/INV decomposition) is verified once per circuit; every
//     mapped netlist of every (K, workers) combination is verified
//     against the subject DAG with verify.Equivalent.
//
//  2. Determinism. The flow engine promises serial-identical results
//     for any worker count. The harness fingerprints each iteration —
//     the exported Verilog bytes plus the metrics row — and requires
//     byte-identical fingerprints across all configured worker counts.
//
// The package is test-only: the harness and its sweeps over every
// circuit in examples/circuits live in _test.go files.
package diffharness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"casyn"
	"casyn/internal/bnet"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/place"
	"casyn/internal/subject"
	"casyn/internal/verify"
)

// Config parameterizes a harness run. The zero value is not useful;
// use Default for the standard sweep.
type Config struct {
	// Ks is the congestion-factor ladder each circuit is mapped at.
	Ks []float64
	// Workers lists the flow worker counts to run and cross-compare;
	// every count must produce byte-identical iterations.
	Workers []int
	// Verify tunes the equivalence checker (zero value = defaults).
	Verify verify.Options
	// Utilization sets the die sizing fraction (0 = the calibrated
	// 0.58 used by the top-level API).
	Utilization float64
	// Dies > 1 prepares a multi-die run over a k-way prefix
	// (RunAdaptiveSweep only).
	Dies int
}

// Default is the sweep the acceptance tests run: the paper-relevant K
// range and serial vs parallel execution.
func Default() Config {
	return Config{
		Ks:      []float64{0, 0.5, 1, 2},
		Workers: []int{1, 4},
	}
}

// IterationCheck is the verdict for one (K, workers) iteration.
type IterationCheck struct {
	K float64
	// Report proves the mapped netlist equivalent to the subject DAG.
	Report *verify.Report
	// Fingerprint is a hex SHA-256 over the iteration's exported
	// Verilog and its metrics row; equal fingerprints mean
	// byte-identical results.
	Fingerprint string
}

// Result is a completed harness run for one circuit.
type Result struct {
	Name string
	// Network and Decompose prove the front-end hand-offs: PLA to
	// Boolean network, network to subject DAG.
	Network   *verify.Report
	Decompose *verify.Report
	// Runs maps each worker count to its per-K checks, in Ks order.
	Runs map[int][]IterationCheck
}

// Run drives one circuit through the full differential sweep. Any
// inequivalence, unproven verdict, or cross-worker divergence is an
// error; the Result describes a fully verified sweep.
func Run(ctx context.Context, name string, p *logic.PLA, cfg Config) (*Result, error) {
	if len(cfg.Ks) == 0 || len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("diffharness: %s: empty K schedule or worker list", name)
	}
	res := &Result{Name: name, Runs: make(map[int][]IterationCheck)}

	// Front end: PLA → Boolean network → subject DAG, each hand-off
	// proven before any mapping happens.
	n, err := bnet.FromPLA(p)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	if res.Network, err = prove(ctx, name, "pla vs network", p, n, cfg.Verify); err != nil {
		return nil, err
	}
	d, err := subject.Decompose(n)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	if res.Decompose, err = prove(ctx, name, "network vs dag", n, d, cfg.Verify); err != nil {
		return nil, err
	}

	// Back end: the K ladder under every worker count. All counts
	// share one prepared context — the flow's determinism guarantee is
	// over the prepared placement, not a fresh one per run.
	util := cfg.Utilization
	if util == 0 {
		util = 0.58
	}
	area := float64(d.BaseGateCount()) * 4.6 / util
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	fcfg := casyn.FlowConfig(layout, casyn.Options{})
	fcfg.KSchedule = cfg.Ks
	pc, err := flow.Prepare(ctx, d, fcfg)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	for _, w := range cfg.Workers {
		wcfg := fcfg
		wcfg.Workers = w
		fres, err := flow.Run(ctx, pc, wcfg)
		if err != nil {
			return nil, fmt.Errorf("diffharness: %s workers=%d: %w", name, w, err)
		}
		if len(fres.Iterations) != len(cfg.Ks) {
			return nil, fmt.Errorf("diffharness: %s workers=%d: %d iterations, want %d",
				name, w, len(fres.Iterations), len(cfg.Ks))
		}
		checks := make([]IterationCheck, 0, len(fres.Iterations))
		for _, it := range fres.Iterations {
			if it.Err != nil {
				return nil, fmt.Errorf("diffharness: %s workers=%d K=%g: %w", name, w, it.K, it.Err)
			}
			rep, err := prove(ctx, name, fmt.Sprintf("dag vs netlist (K=%g, workers=%d)", it.K, w),
				d, it.Netlist, cfg.Verify)
			if err != nil {
				return nil, err
			}
			fp, err := fingerprint(&it)
			if err != nil {
				return nil, fmt.Errorf("diffharness: %s workers=%d K=%g: %w", name, w, it.K, err)
			}
			checks = append(checks, IterationCheck{K: it.K, Report: rep, Fingerprint: fp})
		}
		res.Runs[w] = checks
	}

	// Determinism: every worker count must reproduce the first one,
	// byte for byte.
	base := res.Runs[cfg.Workers[0]]
	for _, w := range cfg.Workers[1:] {
		for i, c := range res.Runs[w] {
			if c.Fingerprint != base[i].Fingerprint {
				return nil, fmt.Errorf(
					"diffharness: %s K=%g: workers=%d diverges from workers=%d (fingerprint %s vs %s)",
					name, c.K, w, cfg.Workers[0], c.Fingerprint, base[i].Fingerprint)
			}
		}
	}
	return res, nil
}

// prove runs the checker and converts "not equivalent" and "equivalent
// but unproven" into errors: the harness demands proofs.
func prove(ctx context.Context, name, step string, a, b any, opts verify.Options) (*verify.Report, error) {
	rep, err := verify.Equivalent(ctx, a, b, opts)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %s: %w", name, step, err)
	}
	if !rep.Equivalent {
		return nil, fmt.Errorf("diffharness: %s: %s: NOT equivalent: %s", name, step, rep)
	}
	if !rep.Proven {
		return nil, fmt.Errorf("diffharness: %s: %s: unproven: %s", name, step, rep)
	}
	return rep, nil
}

// fingerprint hashes everything an iteration produced: the exported
// Verilog (cells, connectivity, placement-independent) and the metrics
// row (area, wirelength, congestion — placement- and routing-
// dependent). Two iterations with equal fingerprints are the same
// result, byte for byte.
func fingerprint(it *flow.Iteration) (string, error) {
	var sb strings.Builder
	if err := it.Netlist.WriteVerilog(&sb, "dut"); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\nK=%g cells=%d area=%.6f util=%.6f wl=%.6f failed=%d viol=%d routable=%v\n",
		it.K, it.NumCells, it.CellArea, it.Utilization, it.WireLength,
		it.FailedConnections, it.Overflow, it.Routable)
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:]), nil
}
