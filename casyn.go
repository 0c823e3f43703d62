// Package casyn is congestion-aware logic synthesis: a self-contained
// reproduction of "Congestion-Aware Logic Synthesis" (Pandini, Pileggi,
// Strojwas — DATE 2002) with every substrate it needs built in: a
// multi-level shared-divisor extractor, NAND2/INV decomposition, a
// standard-cell library, recursive-bisection placement, a
// congestion-driven global router, static timing analysis, and the
// paper's congestion-aware technology mapper itself.
//
// The primary entry point is Synthesize, which runs the paper's flow
// end to end:
//
//	pla, _ := casyn.ReadPLAFile("design.pla")
//	result, err := casyn.Synthesize(pla, casyn.Options{
//		K:       0.001,  // congestion minimization factor (Eq. 5)
//		DieArea: 140000, // µm²; 0 derives a die at 58% utilization
//	})
//	fmt.Println(result.Report())
//
// Other front ends (cmd/casyn's ECO mode, the casynd service) drive
// the flow themselves from the same building blocks Synthesize uses:
// SubjectFor, LayoutFor, FlowConfig and ResultFrom. They hold no flow
// policy of their own. The chained drivers (flow.RunStateful, RunECO,
// RunAdaptive) choose seeded placement themselves, and ResultFrom
// reads the multi-die facts off the prepared context, so a result is
// the same whichever front end built it.
//
// Lower-level control — running individual pipeline stages, sweeping
// K, reproducing the paper's tables — is available through the
// internal packages; see the examples/ directory and DESIGN.md.
package casyn

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/netlist"
	"casyn/internal/partition"
	"casyn/internal/place"
	"casyn/internal/sta"
	"casyn/internal/subject"
	"casyn/internal/verify"
)

// Options configures Synthesize.
type Options struct {
	// K is the congestion minimization factor of the paper's Eq. 5;
	// 0 reproduces DAGON-style minimum-area mapping. With Adaptive set
	// it is instead the loop's uniform baseline (0 = the calibrated
	// default, 0.001).
	K float64
	// Adaptive replaces the fixed-K mapping with the closed-loop
	// congestion controller (flow.RunAdaptive): map at a low baseline
	// K, route, inflate a spatial K-field only where the routed
	// congestion map is over capacity, and re-cover the design under
	// that field — at most 3 routed iterations instead of sweeping a K
	// ladder. The controller places seeded rather than re-annealing
	// per iteration (its operating mode, chosen by flow.RunAdaptive).
	// Result.AdaptiveIterations records the routed iterations used.
	Adaptive bool
	// Dies synthesizes for a multi-die target when > 1: the die is
	// tiled into Dies regions, the subject is partitioned directly
	// k-way with cut-driver replication (partition.KWay), and routing
	// enforces the inter-die pin budget on region-crossing nets.
	// Composes with Adaptive: the controller steers the k-way prefix.
	// 0 or 1 is the classic single-die flow.
	Dies int
	// InterDiePinBudget caps region-crossing nets at route admission
	// when Dies > 1: 0 derives the budget from the derated boundary
	// capacity, negative disables the check.
	InterDiePinBudget int
	// DieArea fixes the floorplan in µm². When 0, the die is sized so
	// the minimum-area mapping sits at 58% utilization (the calibrated
	// operating point of the paper's experiments).
	DieArea float64
	// AspectRatio is die width/height (default 1).
	AspectRatio float64
	// OptimizeTechIndependent runs shared-divisor extraction
	// (bnet.FastExtract) and Sweep before decomposition: the stand-in
	// for SIS's technology-independent optimization. No two-level
	// minimization runs. Off by default: the paper's methodology maps
	// the structural netlist.
	OptimizeTechIndependent bool
	// Partition selects the DAG partitioning scheme; the default is
	// the paper's placement-driven partitioning (PDP).
	Partition partition.Method
	// Seed drives all randomized tie-breaking (default 1).
	Seed int64
	// RunTiming enables static timing analysis of the routed design.
	RunTiming bool
	// StageTimeout bounds each individual pipeline stage; zero means
	// no bound.
	StageTimeout time.Duration
	// Workers bounds the goroutines of the covering and routing
	// fan-outs — including the rip-up/reroute negotiation, which
	// routes spatially disjoint congestion regions concurrently —
	// (0 = all CPUs, 1 = serial). The result is identical for every
	// value; only wall-clock time changes.
	Workers int
	// Verify runs the combinational equivalence checker over the
	// pipeline, with its library defaults (seeded simulation, 2^20-node
	// BDD budget, exhaustive fallback up to 20 inputs): the decomposed
	// subject DAG is checked against the input PLA and the mapped
	// netlist against the subject DAG. An inequivalence aborts
	// synthesis with the counterexample in the error; the proof report
	// lands in Result.Verify.
	Verify bool
}

// Result is a completed synthesis run.
type Result struct {
	// BaseGates is the technology-independent netlist size (NAND2s and
	// inverters).
	BaseGates int
	// CellArea is the mapped cell area in µm² and NumCells the
	// instance count.
	CellArea float64
	NumCells int
	// Utilization is CellArea over die area.
	Utilization float64
	// Violations counts failed routing connections (two-pin segments
	// through over-capacity edges, the detailed-router-violation
	// analogue). Routable is Violations == 0, the flow's single
	// routability definition (route.Result.Routable).
	Violations int
	Routable   bool
	// WireLength is the routed wirelength in µm.
	WireLength float64
	// CriticalPathNs is the worst arrival time (only when RunTiming),
	// with the endpoints in CriticalPath.
	CriticalPathNs float64
	CriticalPath   string
	// Die is the floorplan used.
	Die place.Layout
	// Mapped is the technology-mapped netlist; use its WriteVerilog
	// and WriteCellReport methods to export it.
	Mapped *netlist.Netlist
	// Timing is the full STA result (only when RunTiming): slack
	// reports, per-endpoint arrivals, path dumps.
	Timing *sta.Result
	// Verify is the mapped-netlist equivalence report (only when
	// Options.Verify was set).
	Verify *verify.Report
	// Metrics is the iteration's observability snapshot (stage timings,
	// congestion histogram, hot spots, counters). Non-nil only when the
	// caller attached an obs.Recorder to ctx (see internal/obs).
	Metrics *flow.Metrics
	// AdaptiveIterations is the number of routed iterations the
	// closed-loop controller used (0 for fixed-K synthesis).
	AdaptiveIterations int
	// Dies echoes the multi-die region count (0 for single-die).
	Dies int
	// ReplicatedGates counts subject gates the k-way partitioner
	// duplicated across die regions (multi-die runs only).
	ReplicatedGates int
	// CrossRegionNets counts routed nets spanning more than one die
	// region (multi-die runs only).
	CrossRegionNets int
}

// Report formats the result like the paper's tables.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "base gates:        %d\n", r.BaseGates)
	fmt.Fprintf(&b, "cell area:         %.1f µm² (%d cells)\n", r.CellArea, r.NumCells)
	fmt.Fprintf(&b, "die:               %.0f µm² (%d rows), utilization %.2f%%\n",
		r.Die.Area(), r.Die.NumRows, r.Utilization*100)
	fmt.Fprintf(&b, "routing violations: %d (routable: %v)\n", r.Violations, r.Routable)
	if r.AdaptiveIterations > 0 {
		fmt.Fprintf(&b, "adaptive:          %d routed iteration(s)\n", r.AdaptiveIterations)
	}
	if r.Dies > 1 {
		fmt.Fprintf(&b, "dies:              %d (%d replicated gates, %d cross-region nets)\n",
			r.Dies, r.ReplicatedGates, r.CrossRegionNets)
	}
	fmt.Fprintf(&b, "routed wirelength: %.0f µm\n", r.WireLength)
	if r.CriticalPath != "" {
		fmt.Fprintf(&b, "critical path:     %s\n", r.CriticalPath)
	}
	if r.Verify != nil {
		fmt.Fprintf(&b, "verification:      %s\n", r.Verify)
	}
	return b.String()
}

// ReadPLAFile reads a Berkeley-format PLA from disk.
func ReadPLAFile(path string) (*logic.PLA, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return logic.ReadPLA(f)
}

// ReadPLA reads a Berkeley-format PLA from a reader.
func ReadPLA(r io.Reader) (*logic.PLA, error) { return logic.ReadPLA(r) }

// Synthesize runs the full congestion-aware flow on a PLA: Boolean
// network construction (optionally SIS-style optimized), NAND2/INV
// decomposition, technology-independent placement, congestion-aware
// technology mapping with the given K, placement, global routing, and
// optional timing.
func Synthesize(p *logic.PLA, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), p, opts)
}

// SynthesizeContext is Synthesize with cooperative cancellation: when
// ctx is canceled or its deadline expires, the pipeline stops promptly
// (within one check interval of the inner loops) and returns the ctx
// error wrapped in a *runstage.StageError identifying the stage that
// was interrupted.
func SynthesizeContext(ctx context.Context, p *logic.PLA, opts Options) (*Result, error) {
	dag, err := SubjectFor(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	return synthesizeSubject(ctx, dag, opts)
}

// SubjectFor runs the technology-independent front end on a PLA:
// Boolean network construction (optionally SIS-style optimized) and
// NAND2/INV decomposition, with the front-end equivalence check when
// opts.Verify is set. It is the front half of Synthesize, exported so
// other entry points (the casynd service) share the exact same path.
func SubjectFor(ctx context.Context, p *logic.PLA, opts Options) (*subject.DAG, error) {
	style := bench.Direct
	if opts.OptimizeTechIndependent {
		style = bench.SISOptimized
	}
	dag, err := bench.BuildSubject(p, style)
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		// Checks the whole technology-independent front end at once:
		// extraction, sweep, and decomposition.
		rep, err := verify.Equivalent(ctx, p, dag, verify.Options{})
		if err != nil {
			return nil, err
		}
		if !rep.Equivalent {
			return nil, fmt.Errorf("casyn: technology-independent synthesis changed the function: %s", rep)
		}
	}
	return dag, nil
}

// synthesizeSubject runs placement, mapping, routing, and timing on a
// decomposed subject DAG: the back half of SynthesizeContext.
func synthesizeSubject(ctx context.Context, dag *subject.DAG, opts Options) (*Result, error) {
	layout, err := LayoutFor(dag, opts)
	if err != nil {
		return nil, err
	}
	cfg := FlowConfig(layout, opts)
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		return nil, err
	}
	if opts.Dies > 1 {
		// Prepare the k-way prefix here (rather than letting RunOnce do
		// it on a private copy) so ResultFrom finds the replication
		// outcome on pc.
		if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
			return nil, err
		}
	}
	if opts.Adaptive {
		ares, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{BaseK: opts.K})
		if err != nil {
			return nil, err
		}
		best := ares.Best()
		if best == nil {
			return nil, fmt.Errorf("casyn: adaptive synthesis produced no iterations")
		}
		res := ResultFrom(dag, layout, pc, best)
		res.AdaptiveIterations = ares.RoutedIterations()
		return res, nil
	}
	it, err := flow.RunOnce(ctx, pc, opts.K, cfg)
	if err != nil {
		return nil, err
	}
	return ResultFrom(dag, layout, pc, &it), nil
}

// LayoutFor sizes the floorplan for a decomposed subject DAG under
// opts: the explicit DieArea when given, else a die holding the
// base-gate estimate at the calibrated 58% utilization.
func LayoutFor(dag *subject.DAG, opts Options) (place.Layout, error) {
	if opts.AspectRatio == 0 {
		opts.AspectRatio = 1
	}
	dieArea := opts.DieArea
	if dieArea == 0 {
		// Size from the base-gate estimate at the calibrated fraction.
		dieArea = float64(dag.BaseGateCount()) * 4.6 / 0.58
	}
	return place.NewLayout(dieArea, opts.AspectRatio, library.RowHeight)
}

// FlowConfig builds the calibrated flow operating point for opts on a
// fixed layout — the exact configuration Synthesize runs, exported so
// other front ends (the casynd service) produce byte-identical
// results. It sets no K schedule: the single-iteration drivers take
// opts.K as an argument, and callers sweeping K with flow.Run set
// cfg.KSchedule.
func FlowConfig(layout place.Layout, opts Options) flow.Config {
	popts := experiments.PlaceOpts()
	if opts.Seed != 0 {
		popts.Seed = opts.Seed
	}
	ropts := experiments.RouteOpts()
	ropts.RegionPinBudget = opts.InterDiePinBudget
	return flow.Config{
		Layout:         layout,
		Method:         opts.Partition,
		Dies:           opts.Dies,
		PlaceOpts:      popts,
		RouteOpts:      ropts,
		FreshPlacement: true,
		RunSTA:         opts.RunTiming,
		StageTimeout:   opts.StageTimeout,
		Workers:        opts.Workers,
		Verify:         opts.Verify,
	}
}

// ResultFrom condenses a completed flow iteration into the public
// Result shape (the assembly step of Synthesize, shared with casynd
// and cmd/casyn's ECO mode). When pc carries a k-way prefix
// (flow.PrepareMapping with Dies > 1), the multi-die facts come from
// it: the die count and replicated gates from pc.KWay, the
// cross-region nets from the iteration. A context without one yields
// a single-die result.
func ResultFrom(dag *subject.DAG, layout place.Layout, pc *flow.Context, it *flow.Iteration) *Result {
	res := &Result{
		BaseGates:   dag.BaseGateCount(),
		CellArea:    it.CellArea,
		NumCells:    it.NumCells,
		Utilization: it.Utilization,
		Violations:  it.FailedConnections,
		Routable:    it.Routable,
		WireLength:  it.WireLength,
		Die:         layout,
		Mapped:      it.Netlist,
	}
	if it.Timing != nil {
		res.CriticalPathNs = it.Timing.MaxArrival
		res.CriticalPath = it.Timing.String()
		res.Timing = it.Timing
	}
	if kw := pc.KWay; kw != nil {
		res.Dies = len(kw.Regions)
		res.ReplicatedGates = kw.Replicas
		res.CrossRegionNets = it.CrossRegionNets
	}
	res.Verify = it.Verify
	res.Metrics = it.Metrics
	return res
}
