package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/mapper"
	"casyn/internal/netlist"
	"casyn/internal/partition"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/sta"
	"casyn/internal/subject"
	"casyn/internal/verify"
)

// workers is the worker count of every flow call: the benchmark
// machine has two CPUs.
const workers = 2

// sizes are the input sizes of a run. Every run uses paperSize; the
// self-test shrinks them.
type sizes struct {
	scale      float64 // bench class spec scale; 1 is the paper's size
	routeGates int     // cells of the routing-only netlist
	minEdits   int     // eco edits a run makes however short it is
}

var paperSize = sizes{scale: 1, routeGates: 250_000, minEdits: 2}

// result is what one operation produced.
type result struct {
	gates      int              // base gates of the design it synthesized or routed
	netlist    *netlist.Netlist // nil for routing-only operations
	netLength  []float64        // per-net routed length, routing-only operations
	violations int              // connections through over-capacity edges
	wirelength float64          // µm
	area       float64          // mapped cell area, µm²
	criticalNs float64          // worst arrival time when timing ran
}

// iterationResult is the result of a flow iteration over a design of
// gates base gates.
func iterationResult(gates int, it *flow.Iteration) result {
	r := result{gates: gates, netlist: it.Netlist, violations: it.FailedConnections,
		wirelength: it.WireLength, area: it.CellArea}
	if it.Timing != nil {
		r.criticalNs = it.Timing.MaxArrival
	}
	return r
}

// fingerprint identifies the output: the Verilog of the netlist (or
// the per-net routed lengths), the violation count and the wirelength.
func (r result) fingerprint() string {
	h := sha256.New()
	if r.netlist != nil {
		// Writes to a hash never fail, so neither does WriteVerilog.
		_ = r.netlist.WriteVerilog(h, "top")
	}
	var b [8]byte
	for _, l := range r.netLength {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(l))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "|%d|%x", r.violations, math.Float64bits(r.wirelength))
	return hex.EncodeToString(h.Sum(nil))
}

// session is a workload after set-up: a closed-loop client runs its
// operations one after another.
type session struct {
	// minOps is the number of operations a run makes however short it
	// is: one of each kind.
	minOps int
	// pairs is the number of leading operations a traced run also runs
	// untraced, as the fingerprint reference and the tracing overhead.
	pairs int
	// op runs operation i, traced when tr is non-nil. key groups
	// operations whose outputs must be identical; bucket groups the
	// latencies that share a median. A run with commit false leaves the
	// session's state as it was.
	op func(ctx context.Context, i int, tr *tracer, commit bool) (key, bucket string, r result, err error)
	// check verifies the distinct outputs after the run (acc.first
	// holds the first result of every key) and records each verdict.
	check func(ctx context.Context, tr *tracer, acc *account)
}

// workload names a set of inputs and how to set them up.
type workload struct {
	name  string
	setup func(ctx context.Context, seed int64, sz sizes) (*session, error)
}

var workloads = []workload{
	{"oneshot", setupOneshot},
	{"drivers", setupDrivers},
	{"eco", setupECO},
	{"route250k", setupRoute},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// designOpts is the designer's default run: K=0.001 with timing.
func designOpts() casyn.Options {
	return casyn.Options{K: 0.001, RunTiming: true, Workers: workers}
}

func generate(c bench.Class, seed int64, sz sizes) (*logic.PLA, error) {
	spec := c.Spec()
	if sz.scale != 1 {
		spec = c.ScaledSpec(sz.scale)
	}
	spec.Seed += seed
	return bench.Generate(spec)
}

// warmUp synthesizes a quarter-scale SPLA once so that lazy
// initialization and heap growth are paid before the first timed
// operation.
func warmUp(ctx context.Context, seed int64, sz sizes) error {
	p, err := generate(bench.SPLA, seed, sizes{scale: sz.scale / 4})
	if err != nil {
		return err
	}
	_, err = casyn.SynthesizeContext(ctx, p, designOpts())
	return err
}

// synthKind is one design run through one flow driver. run is the
// untraced path a user takes through the casyn facade; traced is the
// same work composed from the layers' public functions so the
// benchmark can time each call. The two must produce identical
// outputs.
type synthKind struct {
	name   string
	pla    *logic.PLA
	opts   casyn.Options
	traced func(ctx context.Context, tr *tracer, pla *logic.PLA, opts casyn.Options) (result, error)
}

func (k synthKind) run(ctx context.Context, tr *tracer) (result, error) {
	if tr != nil {
		return k.traced(tr.context(ctx), tr, k.pla, k.opts)
	}
	res, err := casyn.SynthesizeContext(ctx, k.pla, k.opts)
	if err != nil {
		return result{}, err
	}
	return result{gates: res.BaseGates, netlist: res.Mapped, violations: res.Violations,
		wirelength: res.WireLength, area: res.CellArea, criticalNs: res.CriticalPathNs}, nil
}

// cycle runs the kinds round-robin; every pass of a kind must
// reproduce its first output, which is verified against the PLA.
func cycle(kinds []synthKind) *session {
	return &session{
		minOps: len(kinds),
		pairs:  len(kinds),
		op: func(ctx context.Context, i int, tr *tracer, _ bool) (string, string, result, error) {
			k := kinds[i%len(kinds)]
			r, err := k.run(ctx, tr)
			return k.name, k.name, r, err
		},
		check: func(ctx context.Context, tr *tracer, acc *account) {
			for _, k := range kinds {
				if r, ok := acc.first[k.name]; ok {
					acc.verdict(k.name, equivalent(ctx, tr, k.pla, r.netlist))
				}
			}
		},
	}
}

// equivalent checks that the netlist computes its reference's
// functions. A verdict from simulation alone counts as equivalent; the
// traced run records how many verdicts were proofs.
func equivalent(ctx context.Context, tr *tracer, ref any, nl *netlist.Netlist) error {
	var rep *verify.Report
	err := tr.call("verify.Equivalent", func() (err error) {
		rep, err = verify.Equivalent(ctx, ref, nl, verify.Options{})
		return err
	})
	if err != nil {
		return err
	}
	tr.add("verify.checks", 1)
	tr.add("verify.bdd_nodes", float64(rep.BDDNodes))
	tr.add("verify.vectors", float64(rep.VectorsSimulated))
	if rep.Proven {
		tr.add("verify.proven", 1)
	}
	if !rep.Equivalent {
		return fmt.Errorf("not equivalent to its reference: %s", rep)
	}
	return nil
}

// setupOneshot: full-size SPLA, PDC and TOO_LARGE through the facade
// at K=0.001 with timing — what a designer runs. Placement dominates.
func setupOneshot(ctx context.Context, seed int64, sz sizes) (*session, error) {
	var kinds []synthKind
	for _, c := range []bench.Class{bench.SPLA, bench.PDC, bench.TooLarge} {
		p, err := generate(c, seed, sz)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, synthKind{name: c.String(), pla: p, opts: designOpts(), traced: tracedOneshot})
	}
	return cycle(kinds), warmUp(ctx, seed, sz)
}

// tracedOneshot is casyn.SynthesizeContext composed from its layer
// calls: SubjectFor, flow.Prepare, then flow.RunOnce's map, place,
// route and timing.
func tracedOneshot(ctx context.Context, tr *tracer, p *logic.PLA, opts casyn.Options) (result, error) {
	dag, cfg, pc, err := prepared(ctx, tr, p, opts)
	if err != nil {
		return result{}, err
	}
	var mres *mapper.Result
	if err := tr.call("mapper.Map", func() (err error) {
		mres, err = mapper.Map(ctx, pc.DAG, mapper.Input{Pos: pc.Pos, POPads: pc.POPads},
			mapper.Options{K: opts.K, Method: cfg.Method, Workers: cfg.Workers})
		return err
	}); err != nil {
		return result{}, err
	}
	pn := mres.Netlist.ToPlacement(pc.PIPads, pc.POList)
	var pl *place.Placement
	if err := tr.call("place.PlaceNetlist", func() (err error) {
		pl, err = place.PlaceNetlist(ctx, pn.Cells, cfg.Layout, cfg.PlaceOpts)
		return err
	}); err != nil {
		return result{}, err
	}
	ropts := cfg.RouteOpts
	ropts.Workers = cfg.Workers
	var rres *route.Result
	if err := tr.call("route.RouteNetlist", func() (err error) {
		rres, err = route.RouteNetlist(ctx, pn.Cells, pl, cfg.Layout, ropts)
		return err
	}); err != nil {
		return result{}, err
	}
	var timing *sta.Result
	if err := tr.call("sta.Analyze", func() (err error) {
		timing, err = sta.Analyze(mres.Netlist, sta.NetLengths(pn.SigNet, rres.NetLength), cfg.STAOpts)
		return err
	}); err != nil {
		return result{}, err
	}
	return result{gates: dag.BaseGateCount(), netlist: mres.Netlist, violations: rres.FailedConnections,
		wirelength: rres.WireLength, area: mres.CellArea, criticalNs: timing.MaxArrival}, nil
}

// prepared runs the facade's front half: the subject DAG, its
// floorplan and flow configuration, and the subject placement.
func prepared(ctx context.Context, tr *tracer, p *logic.PLA, opts casyn.Options) (dag *subject.DAG, cfg flow.Config, pc *flow.Context, err error) {
	if err = tr.call("casyn.SubjectFor", func() (err error) {
		dag, err = casyn.SubjectFor(ctx, p, opts)
		return err
	}); err != nil {
		return
	}
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		return
	}
	cfg = casyn.FlowConfig(layout, opts)
	if opts.Adaptive {
		cfg.FreshPlacement = false
	}
	err = tr.call("flow.Prepare", func() (err error) {
		pc, err = flow.Prepare(ctx, dag, cfg)
		return err
	})
	return
}

// setupDrivers: the non-default flow drivers — the closed-loop
// adaptive controller on SPLA and 4-die synthesis (direct k-way
// partitioning with replication) on PDC. One design per driver keeps a
// round short enough for three rounds a run. TOO_LARGE is left out of
// 4-die synthesis: it fails route admission on every seed (its crossing
// nets exceed the inter-die pin budget).
func setupDrivers(ctx context.Context, seed int64, sz sizes) (*session, error) {
	adaptive, dies := designOpts(), designOpts()
	adaptive.Adaptive = true
	dies.Dies = 4
	var kinds []synthKind
	for _, k := range []struct {
		class  bench.Class
		name   string
		opts   casyn.Options
		traced func(context.Context, *tracer, *logic.PLA, casyn.Options) (result, error)
	}{
		{bench.SPLA, "adaptive_spla", adaptive, tracedAdaptive},
		{bench.PDC, "dies4_pdc", dies, tracedDies},
	} {
		p, err := generate(k.class, seed, sz)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, synthKind{name: k.name, pla: p, opts: k.opts, traced: k.traced})
	}
	return cycle(kinds), warmUp(ctx, seed, sz)
}

func tracedAdaptive(ctx context.Context, tr *tracer, p *logic.PLA, opts casyn.Options) (result, error) {
	dag, cfg, pc, err := prepared(ctx, tr, p, opts)
	if err != nil {
		return result{}, err
	}
	var ares *flow.AdaptiveResult
	if err := tr.call("flow.RunAdaptive", func() (err error) {
		ares, err = flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{BaseK: opts.K})
		return err
	}); err != nil {
		return result{}, err
	}
	best := ares.Best()
	if best == nil {
		return result{}, fmt.Errorf("adaptive synthesis produced no iterations")
	}
	return iterationResult(dag.BaseGateCount(), best), nil
}

// tracedDies mirrors the facade's multi-die path: flow.PrepareMapping
// split into its partition and prefix calls, then flow.RunOnce. Like
// the facade, it hands RunOnce a config without a library, so RunOnce
// builds the k-way prefix a second time.
func tracedDies(ctx context.Context, tr *tracer, p *logic.PLA, opts casyn.Options) (result, error) {
	dag, cfg, pc, err := prepared(ctx, tr, p, opts)
	if err != nil {
		return result{}, err
	}
	var forest *partition.Forest
	if err := tr.call("partition.Partition", func() (err error) {
		forest, err = partition.Partition(partition.Input{DAG: pc.DAG, Pos: pc.Pos, POPads: pc.POPads}, cfg.Method)
		return err
	}); err != nil {
		return result{}, err
	}
	var kres *partition.KWayResult
	if err := tr.call("partition.KWay", func() (err error) {
		kres, err = partition.KWay(pc.DAG, forest, partition.KWayOptions{
			K: cfg.Dies, Die: cfg.Layout.Die, Pos: pc.Pos, POPads: pc.POPads, Replicate: true,
		})
		return err
	}); err != nil {
		return result{}, err
	}
	tr.add("partition.cut_nets", float64(kres.CutNets))
	tr.add("partition.replicas", float64(kres.Replicas))
	if err := tr.call("mapper.PrepareForest", func() (err error) {
		pc.Prep, err = mapper.PrepareForest(ctx, kres.DAG, kres.Forest,
			mapper.Input{Pos: kres.Pos, POPads: pc.POPads},
			mapper.Options{Method: cfg.Method, Lib: library.Default(), Workers: cfg.Workers})
		return err
	}); err != nil {
		return result{}, err
	}
	pc.DAG, pc.Pos, pc.Regions, pc.KWay = kres.DAG, kres.Pos, kres.Regions, kres
	var it flow.Iteration
	if err := tr.call("flow.RunOnce", func() (err error) {
		it, err = flow.RunOnce(ctx, pc, opts.K, cfg)
		return err
	}); err != nil {
		return result{}, err
	}
	flow.MergeMetrics(ctx, it.Metrics)
	return iterationResult(dag.BaseGateCount(), &it), nil
}

// ecoSession chains seeded single-gate edits through flow.RunECO on
// one base synthesis.
type ecoSession struct {
	pc    *flow.Context
	cfg   flow.Config
	st    *flow.ECOState
	cells int // mapped cells of st's netlist
	net   *netlist.Netlist
	rng   *rand.Rand
	edits mapper.EditSet
	drawn int // operation the edits were drawn for
}

// setupECO: a base synthesis of full-size TOO_LARGE at K=0.5 in fast
// (incremental place and route) ECO mode, then a stream of seeded
// single-gate edits. Latencies are bucketed by whether the edit changed
// the mapped cell count: those edits fall back to full placement.
func setupECO(ctx context.Context, seed int64, sz sizes) (*session, error) {
	p, err := generate(bench.TooLarge, seed, sz)
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, seed, sz); err != nil {
		return nil, err
	}
	opts := casyn.Options{K: 0.5, Workers: workers}
	dag, err := casyn.SubjectFor(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		return nil, err
	}
	cfg := casyn.FlowConfig(layout, opts)
	cfg.Lib = library.Default()
	cfg.FreshPlacement = false
	cfg.FastECORoute = true
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		return nil, err
	}
	if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
		return nil, err
	}
	it, st, err := flow.RunStateful(ctx, pc, opts.K, cfg)
	if err != nil {
		return nil, err
	}
	e := &ecoSession{pc: pc, cfg: cfg, st: st, cells: it.NumCells, net: it.Netlist,
		rng: rand.New(rand.NewSource(1 + seed)), drawn: -1}
	return &session{minOps: sz.minEdits, pairs: 2, op: e.op, check: e.check}, nil
}

func (e *ecoSession) op(ctx context.Context, i int, tr *tracer, commit bool) (string, string, result, error) {
	key := fmt.Sprintf("edit%d", i)
	if e.drawn != i {
		e.edits, e.drawn = mapper.RandomEdits(e.st.Prep, e.rng, 1), i
	}
	if len(e.edits.Edits) == 0 {
		return key, "", result{}, fmt.Errorf("design too small for an edit")
	}
	ctx = tr.context(ctx)
	var it flow.Iteration
	var st *flow.ECOState
	if err := tr.call("flow.RunECO", func() (err error) {
		it, st, err = flow.RunECO(ctx, e.pc, e.st, e.edits, e.cfg)
		return err
	}); err != nil {
		return key, "", result{}, err
	}
	flow.MergeMetrics(ctx, it.Metrics)
	bucket := "cells_kept"
	if it.NumCells != e.cells {
		bucket = "cells_changed"
	}
	if commit {
		e.st, e.cells, e.net = st, it.NumCells, it.Netlist
	}
	return key, bucket, iterationResult(st.Prep.DAG().BaseGateCount(), &it), nil
}

// check verifies the final netlist against the edited subject DAG.
func (e *ecoSession) check(ctx context.Context, tr *tracer, acc *account) {
	acc.verdict("final netlist", equivalent(ctx, tr, e.st.Prep.DAG(), e.net))
}

// setupRoute: the global router alone on the generated 250k-cell placed
// netlist with congestion hotspots — 100% routing, where oneshot is ~5%.
func setupRoute(ctx context.Context, seed int64, sz sizes) (*session, error) {
	spec := bench.RouteSpecAt(sz.routeGates)
	spec.Seed += seed
	nl, pl, layout, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	opts := experiments.RouteOpts()
	opts.Workers = workers
	// The warm-up is one full route: it grows the heap to its working
	// size before the first timed route.
	if _, err := route.RouteNetlist(ctx, nl, pl, layout, opts); err != nil {
		return nil, err
	}
	return &session{
		minOps: 1,
		pairs:  1,
		op: func(ctx context.Context, _ int, tr *tracer, _ bool) (string, string, result, error) {
			var res *route.Result
			err := tr.call("route.RouteNetlist", func() (err error) {
				res, err = route.RouteNetlist(tr.context(ctx), nl, pl, layout, opts)
				return err
			})
			if err != nil {
				return "route", "route", result{}, err
			}
			return "route", "route", result{gates: sz.routeGates, netLength: res.NetLength,
				violations: res.FailedConnections, wirelength: res.WireLength}, nil
		},
		check: func(context.Context, *tracer, *account) {},
	}, nil
}
