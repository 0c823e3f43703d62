// Package casyn is congestion-aware logic synthesis: a self-contained
// reproduction of "Congestion-Aware Logic Synthesis" (Pandini, Pileggi,
// Strojwas — DATE 2002) with every substrate it needs built in: a
// two-level and multi-level logic optimizer, NAND2/INV decomposition, a
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
	"casyn/internal/bnet"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/netlist"
	"casyn/internal/partition"
	"casyn/internal/place"
	"casyn/internal/route"
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
	// congestion map is over capacity, and re-cover just the affected
	// region — at most 3 routed iterations instead of sweeping a K
	// ladder. Placement is seeded rather than re-annealed per
	// iteration (the controller's operating mode).
	// Result.AdaptiveIterations records the routed iterations used.
	Adaptive bool
	// Dies synthesizes for a multi-die target when > 1: the die is
	// tiled into Dies regions, the subject is partitioned directly
	// k-way with cut-driver replication (partition.KWay), and routing
	// enforces the inter-die pin budget on region-crossing nets.
	// Incompatible with Adaptive. 0 or 1 is the classic single-die
	// flow.
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
	// OptimizeTechIndependent runs two-level minimization and
	// multi-level extraction before decomposition (the "SIS" path).
	// Off by default: the paper's methodology maps the structural
	// netlist.
	OptimizeTechIndependent bool
	// Partition selects the DAG partitioning scheme; the default is
	// the paper's placement-driven partitioning (PDP).
	Partition partition.Method
	// Seed drives all randomized tie-breaking (default 1).
	Seed int64
	// RunTiming enables static timing analysis of the routed design.
	RunTiming bool
	// IterationTimeout bounds the wall-clock time of the synthesis
	// iteration (map+place+route+sta); zero means no bound. On expiry
	// Synthesize returns a *runstage.StageError whose Timeout() method
	// reports true.
	IterationTimeout time.Duration
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
	// pipeline: the decomposed subject DAG is checked against the
	// input Boolean network (when synthesis starts from a network or
	// PLA) and the mapped netlist against the subject DAG. An
	// inequivalence aborts synthesis with the counterexample in the
	// error; the proof report lands in Result.Verify.
	Verify bool
	// VerifyOpts tunes the checker when Verify is set (zero value =
	// library defaults: seeded simulation, 2^20-node BDD budget,
	// exhaustive fallback up to 20 inputs).
	VerifyOpts verify.Options
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
	// analogue). Routable uses the flow's single routability
	// definition: zero failed connections AND zero raw track overflow
	// violations (route.Result.Routable, same as flow.Iteration).
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
	// Dies echoes the multi-die region count (0 or 1 for single-die).
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
	return SynthesizeSubjectContext(ctx, dag, opts)
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
		// two-level minimization, extraction, and decomposition.
		rep, err := verify.Equivalent(ctx, p, dag, opts.VerifyOpts)
		if err != nil {
			return nil, err
		}
		if !rep.Equivalent {
			return nil, fmt.Errorf("casyn: technology-independent synthesis changed the function: %s", rep)
		}
	}
	return dag, nil
}

// SynthesizeNetwork runs the flow on an already-built Boolean network.
func SynthesizeNetwork(n *bnet.Network, opts Options) (*Result, error) {
	return SynthesizeNetworkContext(context.Background(), n, opts)
}

// SynthesizeNetworkContext is SynthesizeNetwork with cooperative
// cancellation (see SynthesizeContext).
func SynthesizeNetworkContext(ctx context.Context, n *bnet.Network, opts Options) (*Result, error) {
	if opts.OptimizeTechIndependent {
		bnet.FastExtract(n, bnet.FastExtractOptions{})
		n.Sweep()
	}
	dag, err := subject.Decompose(n)
	if err != nil {
		return nil, err
	}
	if opts.Verify {
		rep, err := verify.Equivalent(ctx, n, dag, opts.VerifyOpts)
		if err != nil {
			return nil, err
		}
		if !rep.Equivalent {
			return nil, fmt.Errorf("casyn: decomposition changed the function: %s", rep)
		}
	}
	return SynthesizeSubjectContext(ctx, dag, opts)
}

// SynthesizeSubject runs placement, mapping, routing, and timing on a
// decomposed subject DAG.
func SynthesizeSubject(dag *subject.DAG, opts Options) (*Result, error) {
	return SynthesizeSubjectContext(context.Background(), dag, opts)
}

// SynthesizeSubjectContext is SynthesizeSubject with cooperative
// cancellation (see SynthesizeContext).
func SynthesizeSubjectContext(ctx context.Context, dag *subject.DAG, opts Options) (*Result, error) {
	if opts.Adaptive && opts.Dies > 1 {
		// The adaptive controller's K-field feedback is die-local; it
		// has no multi-die model yet. Fail loudly instead of silently
		// ignoring one of the two switches.
		return nil, fmt.Errorf("casyn: Adaptive and Dies > 1 are mutually exclusive")
	}
	layout, err := LayoutFor(dag, opts)
	if err != nil {
		return nil, err
	}
	cfg := FlowConfig(layout, opts)
	if opts.IterationTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.IterationTimeout)
		defer cancel()
	}
	if opts.Adaptive {
		// The closed loop runs with seeded placement: its feedback is
		// region-local, and a fresh anneal per iteration would reshuffle
		// the placement out from under the inflated windows.
		cfg.FreshPlacement = false
	}
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		return nil, err
	}
	if opts.Dies > 1 {
		// Prepare the k-way prefix here (rather than letting RunOnce do
		// it on a private copy) so the replication outcome is visible
		// for the Result.
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
		res := ResultFrom(dag, layout, best)
		res.AdaptiveIterations = ares.RoutedIterations()
		return res, nil
	}
	it, err := flow.RunOnce(ctx, pc, opts.K, cfg)
	if err != nil {
		return nil, err
	}
	flow.MergeMetrics(ctx, it.Metrics)
	res := ResultFrom(dag, layout, &it)
	if opts.Dies > 1 {
		res.Dies = opts.Dies
		res.CrossRegionNets = it.CrossRegionNets
		if pc.KWay != nil {
			res.ReplicatedGates = pc.KWay.Replicas
		}
	}
	return res, nil
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
// results. The schedule is the single rung opts.K; callers sweeping K
// replace cfg.KSchedule.
func FlowConfig(layout place.Layout, opts Options) flow.Config {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return flow.Config{
		Layout:         layout,
		Method:         opts.Partition,
		Dies:           opts.Dies,
		PlaceOpts:      place.Options{Seed: seed, RefinePasses: 8},
		RouteOpts:      route.Options{GCellSize: 26.6, RipupIterations: 6, CapacityScale: 1.98, RegionPinBudget: opts.InterDiePinBudget},
		FreshPlacement: true,
		RunSTA:         opts.RunTiming,
		STAOpts:        sta.Options{},
		KSchedule:      []float64{opts.K},
		StageTimeout:   opts.StageTimeout,
		Workers:        opts.Workers,
		Verify:         opts.Verify,
		VerifyOpts:     opts.VerifyOpts,
	}
}

// ResultFrom condenses a completed flow iteration into the public
// Result shape (the assembly step of Synthesize, shared with casynd).
func ResultFrom(dag *subject.DAG, layout place.Layout, it *flow.Iteration) *Result {
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
	res.Verify = it.Verify
	res.Metrics = it.Metrics
	return res
}

// bnetFromPLA is a convenience re-export of bnet.FromPLA for callers
// that want to optimize the network before synthesis.
func bnetFromPLA(p *logic.PLA) (*bnet.Network, error) { return bnet.FromPLA(p) }

// FromPLA builds the multi-level Boolean network for a PLA, the input
// to SynthesizeNetwork.
func FromPLA(p *logic.PLA) (*bnet.Network, error) { return bnet.FromPLA(p) }
