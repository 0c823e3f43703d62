// Package experiments encodes the paper's evaluation section: one
// entry point per table and figure, each returning the flow's own
// iterations or structured rows that cmd/paper and the benchmarks
// print in the paper's format.
//
// Calibration. Absolute numbers cannot match the paper's (its
// substrate was Silicon Ensemble, PrimeTime, CORELIB8DHS and the real
// IWLS93 netlists; ours is a self-contained simulator stack), so the
// experiments pin down the *shape*: who wins, the three routability
// regions of the K sweep, and where the crossovers fall. Three
// constants calibrate the substrate against the paper's operating
// point and are shared by every experiment:
//
//   - CapacityScale 1.98: compensates the weaker placement/routing of
//     this substrate relative to the commercial flow, positioning the
//     K = 0 netlists at the same marginally-unroutable point the paper
//     reports at ~61% utilization.
//   - a wire unit of 0.5 µm (the coverer's fixed unit): expresses WIRE
//     in routing half-pitches so the paper's K ladder hits the same
//     regions.
//   - Die areas derive from the measured K = 0 cell area and the
//     paper's reported utilization for each circuit, mirroring how the
//     paper fixes floorplans.
package experiments

import (
	"context"
	"fmt"

	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/sta"
	"casyn/internal/subject"
)

// Substrate calibration shared by all experiments.
const (
	// GCellSize is the routing grid pitch in µm.
	GCellSize = 26.6
	// CapacityScale calibrates grid capacity to the paper's flow.
	CapacityScale = 1.98
	// RipupIterations is the router's rip-up and reroute budget.
	RipupIterations = 6
	// RefinePasses is the placer's greedy refinement budget.
	RefinePasses = 8
	// PlacementSeed makes every experiment deterministic.
	PlacementSeed = 1
)

// Fixed full-size floorplans, like the paper's ("the die size was
// fixed to 207062 µm²..."). Our die areas are ≈0.66× the paper's
// because the synthetic library's cells are proportionally smaller;
// the K = 0 utilizations land within a few percent of the paper's
// (SPLA 57.9% vs 61.1%, PDC 56.7% vs 55.9%). Scaled-down runs derive
// their dies from the same utilization fractions instead.
const (
	splaDieArea = 136500 // µm², paper: 207062
	pdcDieArea  = 141500 // µm², paper: 229786
	// tooLargeDieFraction sizes the TOO_LARGE die from the DAGON
	// mapping's area at the paper's 84.37% utilization.
	tooLargeDieFraction = 0.8437
	// splaDieFraction/pdcDieFraction size scaled-down dies.
	splaDieFraction = 0.578
	pdcDieFraction  = 0.567
)

// RouteOpts returns the calibrated router options.
func RouteOpts() route.Options {
	return route.Options{
		GCellSize:       GCellSize,
		RipupIterations: RipupIterations,
		CapacityScale:   CapacityScale,
	}
}

// PlaceOpts returns the calibrated placer options.
func PlaceOpts() place.Options {
	return place.Options{Seed: PlacementSeed, RefinePasses: RefinePasses}
}

// KSchedule is the paper's Table 2/4 K ladder.
func KSchedule() []float64 { return flow.DefaultKSchedule() }

// flowConfig is the calibrated flow configuration every experiment
// runs on layout: the shared placer and router options, fresh
// placement, and the K schedule ks.
func flowConfig(layout place.Layout, ks []float64) flow.Config {
	return flow.Config{
		Layout:         layout,
		PlaceOpts:      PlaceOpts(),
		RouteOpts:      RouteOpts(),
		FreshPlacement: true,
		KSchedule:      ks,
	}
}

// buildSubject generates the class circuit at the given scale and
// lowers it to a subject DAG under the chosen synthesis style.
func buildSubject(class bench.Class, scale float64, style bench.SynthesisStyle) (*subject.DAG, error) {
	spec := class.Spec()
	if scale != 1.0 {
		spec = class.ScaledSpec(scale)
	}
	p, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	return bench.BuildSubject(p, style)
}

// dieFor sizes a floorplan so the given cell area sits at the target
// utilization, like the paper's fixed die constraints.
func dieFor(cellArea, utilization float64) (place.Layout, error) {
	return place.NewLayout(cellArea/utilization, 1.0, library.RowHeight)
}

// minAreaCellArea maps the subject at K = 0 on a self-sized floorplan
// and returns the mapped cell area — the anchor the experiment dies
// are derived from. The provisional layout assumes 50% utilization of
// a base-gate-count area estimate; the K = 0 cell area is insensitive
// to the provisional die (placement only affects tie-breaks).
func minAreaCellArea(ctx context.Context, d *subject.DAG) (float64, error) {
	baseEstimate := float64(d.BaseGateCount()) * 4.6 // µm² per base gate, mapped
	layout, err := place.NewLayout(baseEstimate/0.5, 1.0, library.RowHeight)
	if err != nil {
		return 0, err
	}
	cfg := flowConfig(layout, []float64{0})
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		return 0, err
	}
	it, err := flow.RunOnce(ctx, pc, 0, cfg)
	if err != nil {
		return 0, err
	}
	return it.CellArea, nil
}

// sweepLayout returns the fixed floorplan at full scale, or a
// utilization-derived one for scaled runs.
func sweepLayout(ctx context.Context, class bench.Class, scale float64, d *subject.DAG) (place.Layout, error) {
	if scale == 1.0 {
		area := splaDieArea
		if class == bench.PDC {
			area = pdcDieArea
		}
		return place.NewLayout(float64(area), 1.0, library.RowHeight)
	}
	a0, err := minAreaCellArea(ctx, d)
	if err != nil {
		return place.Layout{}, err
	}
	frac := splaDieFraction
	if class == bench.PDC {
		frac = pdcDieFraction
	}
	return dieFor(a0, frac)
}

// KSweep reproduces Table 2 (SPLA) or Table 4 (PDC): the full K ladder
// against a fixed die sized from the paper's K = 0 utilization. It
// returns one flow iteration per rung, in ladder order, and the die.
// scale = 1.0 runs the full circuit; smaller scales shrink it for unit
// tests and Go benchmarks.
//
// The sweep runs through flow.Run and inherits its degrade-don't-abort
// semantics: a rung that fails carries its cause in Err while the
// remaining ladder still runs. KSweep itself errors only when
// preparation fails, the ctx is canceled, or every K fails.
// workers bounds the goroutines of the K sweep and the per-iteration
// covering/routing fan-outs (0 = runtime.GOMAXPROCS, 1 = serial); the
// table is identical for every value.
func KSweep(ctx context.Context, class bench.Class, scale float64, workers int) ([]flow.Iteration, place.Layout, error) {
	d, err := buildSubject(class, scale, bench.Direct)
	if err != nil {
		return nil, place.Layout{}, err
	}
	layout, err := sweepLayout(ctx, class, scale, d)
	if err != nil {
		return nil, place.Layout{}, err
	}
	cfg := flowConfig(layout, KSchedule())
	cfg.Workers = workers
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		return nil, layout, err
	}
	// One K-invariant mapping prefix (partition + match enumeration)
	// serves all 14 rungs of the ladder.
	if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
		return nil, layout, fmt.Errorf("experiments: %s sweep: %w", class, err)
	}
	res, err := flow.Run(ctx, pc, cfg)
	if err != nil {
		return nil, layout, fmt.Errorf("experiments: %s sweep: %w", class, err)
	}
	return res.Iterations, layout, nil
}

// Table1 reproduces the TOO_LARGE comparison: the SIS-optimized
// netlist (smaller cell area, aggressive sharing) against the
// structure-preserving DAGON mapping, both placed and routed in the
// same fixed die, which it returns alongside. The paper's point: the
// lower-utilization SIS netlist is unroutable where DAGON's routes
// cleanly. (In this substrate the area relation reproduces but the
// routability inversion does not — see EXPERIMENTS.md for the
// analysis.)
func Table1(ctx context.Context, scale float64) (sis, dagon flow.Iteration, layout place.Layout, err error) {
	spec := bench.TooLargeLayered()
	if scale != 1.0 {
		spec = spec.Scaled(scale)
	}
	dagonDAG, err := bench.BuildLayeredSubject(spec, bench.Direct)
	if err != nil {
		return
	}
	sisDAG, err := bench.BuildLayeredSubject(spec, bench.SISOptimized)
	if err != nil {
		return
	}
	aDagon, err := minAreaCellArea(ctx, dagonDAG)
	if err != nil {
		return
	}
	if layout, err = dieFor(aDagon, tooLargeDieFraction); err != nil {
		return
	}
	cfg := flowConfig(layout, []float64{0})
	run := func(d *subject.DAG) (flow.Iteration, error) {
		pc, err := flow.Prepare(ctx, d, cfg)
		if err != nil {
			return flow.Iteration{}, err
		}
		it, err := flow.RunOnce(ctx, pc, 0, cfg)
		if err != nil {
			return flow.Iteration{}, err
		}
		return it, nil
	}
	if sis, err = run(sisDAG); err != nil {
		return
	}
	dagon, err = run(dagonDAG)
	return
}

// STARow is one row of Tables 3 and 5.
type STARow struct {
	Label string
	// CriticalPath is the endpoint description, arrival in ns.
	CriticalPI string
	CriticalPO string
	Arrival    float64
	// SameK0PathArrival is the arrival, in this netlist, at the
	// primary output that was critical in the K = 0 netlist — the
	// "Comparison with critical path K = 0.0" column.
	SameK0PathArrival float64
	// ChipArea/NumRows describe the smallest floorplan that routed the
	// netlist without violations, or the largest one tried when
	// Routable is false.
	ChipArea float64
	NumRows  int
	Routable bool

	// timing backs the same-path column lookup.
	timing *sta.Result
}

// staMidK is the congestion-aware row of Tables 3 and 5: the paper's
// mid-ladder K.
const staMidK = 0.001

// STATable reproduces Table 3 (SPLA) or Table 5 (PDC): static timing
// of the K = 0 mapping, the mid-ladder K = 0.001 mapping, and the SIS
// baseline, each placed and routed in the smallest die (row count)
// that routes it cleanly, starting from the K-sweep floorplan.
// workers parallelizes each variant's covering and routing
// (0 = runtime.GOMAXPROCS, 1 = serial) without changing the rows.
func STATable(ctx context.Context, class bench.Class, scale float64, workers int) ([]STARow, error) {
	d, err := buildSubject(class, scale, bench.Direct)
	if err != nil {
		return nil, err
	}
	sisDAG, err := buildSubject(class, scale, bench.SISOptimized)
	if err != nil {
		return nil, err
	}
	baseLayout, err := sweepLayout(ctx, class, scale, d)
	if err != nil {
		return nil, err
	}

	type variant struct {
		label string
		dag   *subject.DAG
		k     float64
	}
	variants := []variant{
		{"K=0", d, 0},
		{fmt.Sprintf("K=%g", staMidK), d, staMidK},
		{"SIS", sisDAG, 0},
	}
	// The K=0 and mid-K variants share the DAG and walk the same die
	// progression, so their per-(DAG, row-count) flow contexts — the
	// subject placement and the K-invariant mapping prefix — are
	// prepared once and reused.
	ctxCache := map[*subject.DAG]map[int]*flow.Context{}
	var rows []STARow
	var k0PO string
	for vi, v := range variants {
		row, err := staAtMinimalDie(ctx, v.dag, v.k, baseLayout, workers, ctxCache)
		if err != nil {
			return nil, fmt.Errorf("experiments: STA %s: %w", v.label, err)
		}
		row.Label = v.label
		if vi == 0 {
			k0PO = row.CriticalPO
		}
		rows = append(rows, row)
	}
	// Fill the same-path column now that the K=0 critical PO is known.
	for i := range rows {
		if rows[i].timing != nil {
			rows[i].SameK0PathArrival = rows[i].timing.ArrivalByPO[k0PO]
		}
	}
	return rows, nil
}

// staAtMinimalDie maps the DAG at k, then grows the floorplan one row
// at a time from the base layout until routing is clean (bounded), and
// runs STA on the routed result. ctxCache shares the prepared flow
// contexts — subject placement plus the K-invariant mapping prefix —
// across variants keyed by (DAG, row count).
func staAtMinimalDie(ctx context.Context, d *subject.DAG, k float64, base place.Layout, workers int, ctxCache map[*subject.DAG]map[int]*flow.Context) (STARow, error) {
	const maxExtraRows = 10
	row := STARow{}
	for extra := 0; ; extra++ {
		rowsN := base.NumRows + extra
		layout, err := place.LayoutWithRows(rowsN, base.Die.W(), base.RowHeight)
		if err != nil {
			return row, err
		}
		cfg := flowConfig(layout, []float64{k})
		cfg.RunSTA = true
		cfg.Workers = workers
		byRows := ctxCache[d]
		if byRows == nil {
			byRows = map[int]*flow.Context{}
			ctxCache[d] = byRows
		}
		pc := byRows[rowsN]
		if pc == nil {
			pc, err = flow.Prepare(ctx, d, cfg)
			if err != nil {
				return row, err
			}
			if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
				return row, err
			}
			byRows[rowsN] = pc
		}
		it, err := flow.RunOnce(ctx, pc, k, cfg)
		if err != nil {
			return row, err
		}
		routable := it.Routable
		if routable || extra == maxExtraRows {
			row.CriticalPI = it.Timing.CriticalPI
			row.CriticalPO = it.Timing.CriticalPO
			row.Arrival = it.Timing.MaxArrival
			row.ChipArea = layout.Area()
			row.NumRows = layout.NumRows
			row.Routable = routable
			row.timing = it.Timing
			return row, nil
		}
	}
}
