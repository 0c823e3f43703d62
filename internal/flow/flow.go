// Package flow implements the paper's modified ASIC design flow
// (Figure 3): the technology-independent netlist is placed once, then
// technology mapping is repeated with increasing congestion factor K —
// each iteration placing and globally routing the mapped netlist and
// evaluating its congestion map — until the design is routable within
// the fixed die, or the growing cell-area penalty makes congestion
// worse again.
//
// Every driver — Run, RunOnce, RunStateful, RunECO, RunAdaptive —
// hands back finished iterations: each iteration's events are already
// merged into the recorder ctx carries (Run merges its rungs in ladder
// order), and an iteration failed iff its error is non-nil.
//
// # Robustness
//
// Every entry point takes a context.Context and stops promptly (within
// one cooperative check interval of the inner loops) when it is
// canceled. Each pipeline stage of an iteration — map, place, route,
// sta — runs under runstage.Run, which recovers panics into typed
// *runstage.StageError values and enforces the per-stage wall-clock
// budget. The K sweep degrades instead of aborting: a failed, panicked
// or timed-out iteration is recorded in Result.Iterations with its Err
// set, the ladder moves on to the next K, and Best() only considers
// iterations that completed. Run returns an error only
// when the parent context is canceled (partial results are still
// returned) or when every K in the schedule failed.
package flow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/mapper"
	"casyn/internal/netlist"
	"casyn/internal/obs"
	"casyn/internal/par"
	"casyn/internal/partition"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/runstage"
	"casyn/internal/sta"
	"casyn/internal/subject"
	"casyn/internal/verify"
)

// Config parameterizes the flow.
type Config struct {
	// Layout is the fixed floorplan (die size, rows).
	Layout place.Layout
	// Lib is the cell library (default library.Default()).
	Lib *library.Library
	// KSchedule is the ladder of congestion factors to try in order;
	// the default is the paper's Table 2/4 ladder.
	KSchedule []float64
	// Method is the partitioning scheme (default PDP).
	Method partition.Method
	// Dies turns the run into a multi-die workload when > 1: the
	// mapping prefix is built over a direct k-way partition of the die
	// into Dies regions (partition.KWay, seeded from the Method
	// forest) with cut-driver replication, and routing derates
	// region-boundary edges and enforces the inter-die pin budget
	// (RouteOpts.RegionPinBudget) at admission. 0 or 1 is the classic
	// single-die flow. A Context prepared for one die count serves
	// only that count.
	Dies int
	// PlaceOpts / RouteOpts forward to the placer and router.
	PlaceOpts place.Options
	RouteOpts route.Options
	// FreshPlacement re-places the mapped netlist from scratch instead
	// of legalizing the mapper's center-of-mass seeds. Only Run and
	// RunOnce read it. The seeded path (the zero value) carries the
	// companion placement through mapping, as the paper's methodology
	// does, but it is not what one-shot runs use: the casyn facade,
	// casynd and the experiments set FreshPlacement, because on the
	// full-size oneshot designs (seed 1) seeded placement is 26% faster
	// in gates/s yet routes 14.8% more wirelength. The chained drivers
	// always place seeded and ignore the field: RunStateful and RunECO,
	// because fast ECO keeps a cell's previous position while its seed
	// is unchanged, and RunAdaptive, whose region-local feedback a
	// fresh placement per iteration would undo.
	FreshPlacement bool
	// FastECORoute makes RunECO place and route incrementally, with the
	// edited netlist's cells and nets aligned to the previous
	// iteration's by subject gate (a cell by its root gate, a net by
	// the gate driving it). A cell whose gate, width and mapper seed
	// are unchanged keeps its previous legalized position; every other
	// cell goes into the free gap nearest its seed (place.PlaceECO). An
	// aligned net whose terminals are unchanged keeps its routed paths;
	// only new nets and nets whose terminals changed are ripped up and
	// rerouted, against the persisted congestion history
	// (route.RouteECO). Off by default because the from-scratch
	// placement and route are what make RunECO's result byte-identical
	// to a full synthesis of the edited design.
	FastECORoute bool
	// RunSTA enables timing analysis per iteration.
	RunSTA bool
	// STAOpts forwards to the timing analyzer, which has no settable
	// option; the field stays because cmd/casynbench passes it.
	STAOpts sta.Options
	// StopAtFirstRoutable ends the sweep at the first clean iteration
	// (the methodology's normal exit); when false the whole ladder
	// runs, which is how the K-sweep tables are produced.
	StopAtFirstRoutable bool
	// IterationTimeout bounds the wall-clock time of one K iteration
	// (map+place+route+sta together); zero means no bound. An
	// iteration that exceeds it is recorded as failed and the sweep
	// continues with the next K.
	IterationTimeout time.Duration
	// StageTimeout bounds each individual stage of an iteration; zero
	// means no bound. It composes with IterationTimeout (whichever
	// expires first wins).
	StageTimeout time.Duration
	// Hooks injects failures, panics, or delays into specific stages
	// for testing; nil disables injection.
	Hooks *runstage.Hooks
	// Verify enables the post-mapping equivalence check: every mapped
	// netlist is verified against the subject DAG (verify.Equivalent)
	// before placement. An inequivalent netlist fails its iteration
	// with a StageVerify error — functional corruption never degrades
	// silently into a metrics row. The report (including unproven
	// verdicts on designs too wide for the exact engines) lands in
	// Iteration.Verify. The checker runs with its library defaults
	// (verify.Options{}).
	Verify bool
	// Workers bounds the goroutines of the K sweep (0 =
	// runtime.GOMAXPROCS, 1 = serial). Iterations for different K
	// values are independent, so the ladder fans out across the pool
	// and the merged Result — iteration order, Best() selection,
	// degrade records, truncation at the first routable K — is
	// identical for every value. Workers is also forwarded to
	// the per-tree covering fan-out and, when RouteOpts.Workers is
	// unset, to the router — both its first pass and the parallel
	// region-partitioned rip-up/reroute negotiation.
	Workers int
}

func (c *Config) defaults() {
	if c.Lib == nil {
		c.Lib = library.Default()
	}
	if len(c.KSchedule) == 0 {
		c.KSchedule = DefaultKSchedule()
	}
}

// maxHotSpots bounds the per-iteration overflow hot-spot list carried
// in Metrics: enough to localize the congested region, small enough to
// keep iteration snapshots light.
const maxHotSpots = 10

// DefaultKSchedule returns the K ladder of the paper's Tables 2 and 4.
func DefaultKSchedule() []float64 {
	return []float64{0, 0.0001, 0.00025, 0.0005, 0.00075, 0.001,
		0.0025, 0.005, 0.0075, 0.01, 0.05, 0.1, 0.5, 1.0}
}

// Context is the once-per-design preparation: the placed technology-
// independent netlist (paper: "the technology independent netlist and
// its placement are generated only once").
type Context struct {
	DAG    *subject.DAG
	Pos    []geom.Point
	POPads map[int][]geom.Point
	PIPads []geom.Point
	POList []geom.Point
	// Prep is the shared K-invariant mapping prefix (partition forest +
	// complete match enumeration), set by PrepareMapping. Every
	// iteration maps against it; an entry point given a context without
	// a prefix compatible with its Method and Lib builds one on a
	// private copy of the context.
	Prep *mapper.Prepared
	// Regions are the die regions of a multi-die run, set by
	// PrepareMapping when Config.Dies > 1 (nil otherwise). RunOnce
	// forwards them to route admission.
	Regions []geom.Rect
	// KWay is the k-way partitioning outcome of a multi-die run
	// (replica counts, cut metrics); nil for single-die. When it
	// carries replicas, DAG and Pos have been swapped to the
	// replicated clone and its extended placement.
	KWay *partition.KWayResult
}

// Prepare places the subject DAG on the layout image. Cancellation of
// ctx stops the placement promptly; failures (including panics in the
// placer) surface as a *runstage.StageError with Stage
// runstage.StagePrepare.
func Prepare(ctx context.Context, d *subject.DAG, cfg Config) (*Context, error) {
	cfg.defaults()
	type prep struct {
		pos            []geom.Point
		poPads         map[int][]geom.Point
		piPads, poList []geom.Point
	}
	p, err := runstage.Run(ctx, runstage.StagePrepare, 0, cfg.StageTimeout, cfg.Hooks,
		func(ctx context.Context) (prep, error) {
			pos, poPads, piPads, poList, err := mapper.SubjectPlacement(ctx, d, cfg.Layout, cfg.PlaceOpts)
			return prep{pos, poPads, piPads, poList}, err
		})
	if err != nil {
		return nil, err
	}
	return &Context{DAG: d, Pos: p.pos, POPads: p.poPads, PIPads: p.piPads, POList: p.poList}, nil
}

// PrepareMapping computes the shared K-invariant mapping prefix
// (partition forest + complete match enumeration with cached covering
// geometry) and stores it in pc.Prep, where every entry point picks it
// up. The prefix is immutable and safe to share across the concurrent
// ladder. A Prep whose method or library content does not match a
// run's config is ignored, never misused.
//
// Every entry point builds the prefix itself when pc lacks one, so
// explicit use is only needed to share it across several calls (e.g.
// repeated sweeps over one placed design). Failures (including panics)
// surface as a *runstage.StageError with Stage
// runstage.StageMapPrepare.
func PrepareMapping(ctx context.Context, pc *Context, cfg Config) error {
	cfg.defaults()
	mopts := mapper.Options{
		Method:  cfg.Method,
		Lib:     cfg.Lib,
		Workers: cfg.Workers,
	}
	type mprep struct {
		prep *mapper.Prepared
		kway *partition.KWayResult
	}
	p, err := runstage.Run(ctx, runstage.StageMapPrepare, 0, cfg.StageTimeout, cfg.Hooks,
		func(ctx context.Context) (mprep, error) {
			if cfg.Dies > 1 {
				// Multi-die: seed forest from the configured method, then
				// direct k-way moves + replication over the die regions.
				forest, err := partition.Partition(partition.Input{
					DAG:    pc.DAG,
					Pos:    pc.Pos,
					POPads: pc.POPads,
				}, cfg.Method)
				if err != nil {
					return mprep{}, err
				}
				kres, err := partition.KWay(pc.DAG, forest, partition.KWayOptions{
					K:         cfg.Dies,
					Die:       cfg.Layout.Die,
					Pos:       pc.Pos,
					POPads:    pc.POPads,
					Replicate: true,
				})
				if err != nil {
					return mprep{}, err
				}
				if cfg.Verify && kres.Replicas > 0 {
					// Replication edits the subject itself, so prove the
					// replicated DAG equivalent to the original before any
					// mapping happens on it.
					rep, err := verify.Equivalent(ctx, pc.DAG, kres.DAG, verify.Options{})
					if err != nil {
						return mprep{}, err
					}
					if !rep.Equivalent {
						return mprep{}, fmt.Errorf("replicated subject differs from original: %s", rep)
					}
				}
				prep, err := mapper.PrepareForest(ctx, kres.DAG, kres.Forest,
					mapper.Input{Pos: kres.Pos, POPads: pc.POPads}, mopts)
				return mprep{prep: prep, kway: kres}, err
			}
			prep, err := mapper.Prepare(ctx, pc.DAG, mapper.Input{Pos: pc.Pos, POPads: pc.POPads}, mopts)
			return mprep{prep: prep}, err
		})
	if err != nil {
		return err
	}
	pc.Prep = p.prep
	if p.kway != nil {
		pc.DAG = p.kway.DAG
		pc.Pos = p.kway.Pos
		pc.Regions = p.kway.Regions
		pc.KWay = p.kway
	}
	return nil
}

// Iteration is the outcome of one K value: the columns of the paper's
// Tables 2 and 4, plus timing when enabled.
type Iteration struct {
	K               float64
	CellArea        float64 // µm²
	NumCells        int
	DuplicatedCells int
	Utilization     float64 // fraction of die area
	// Overflow is the total track overflow of the routed grid
	// (route.Result.Overflow), rounded to whole tracks: a diagnostic.
	Overflow int
	// FailedConnections counts two-pin route segments through
	// over-capacity edges — the detailed-router-violation analogue the
	// tables, the CLI and casynd print as "routing violations", and
	// the quantity the flow accepts iterations by.
	FailedConnections int
	WireLength        float64 // routed, µm
	// CrossRegionNets counts nets spanning more than one die region
	// (multi-die runs only; 0 otherwise).
	CrossRegionNets int
	// Routable is the flow's single routability definition: the global
	// route completed with FailedConnections == 0 (route.Result.Routable).
	// All consumers — the sweep's Best() selection, StopAtFirstRoutable,
	// and the casyn package — share this definition.
	Routable bool
	Timing   *sta.Result
	Netlist  *netlist.Netlist
	// Verify is the mapped-netlist equivalence report (only when
	// Config.Verify is set; always Equivalent when non-nil, because an
	// inequivalent netlist fails the iteration instead).
	Verify *verify.Report
	// Metrics is the iteration's observability snapshot — stage
	// timings, congestion histogram, overflow hot spots, pipeline
	// counters — populated whenever the context carries an
	// *obs.Recorder (nil otherwise). Failed iterations keep the
	// metrics of the stages that ran.
	Metrics *Metrics
	// Err is non-nil when this ladder rung failed (stage error, panic,
	// or per-iteration timeout; typically a *runstage.StageError): its
	// other columns are then incomplete, and Best() never selects it.
	// Only Run sets it; the single-iteration drivers return the error.
	Err error
}

// Result is the full flow outcome.
type Result struct {
	Iterations []Iteration
	// BestIndex points at the accepted iteration: the first one with
	// the fewest failed connections (so the first routable one when any
	// routed), considering only iterations that completed (Err ==
	// nil). -1 when none completed.
	BestIndex int
}

// Best returns the accepted iteration.
func (r *Result) Best() *Iteration {
	if r.BestIndex < 0 {
		return nil
	}
	return &r.Iterations[r.BestIndex]
}

// Run executes the flow on a prepared context, degrading rather than
// aborting: an iteration that errors, panics, or exceeds
// cfg.IterationTimeout is recorded with Err set and the ladder
// continues at the next K. Run itself returns a non-nil error in three
// cases only: the mapping prefix could not be built (its
// StageMapPrepare error), the parent ctx was canceled (the partial
// Result built so far is still returned), or every K in the schedule
// failed (the joined per-K errors are returned alongside the full
// Result).
//
// Workers claim K values in ascending order into per-index slots, and
// an assembly pass replays the slots in ladder order, so the Result is
// identical for every cfg.Workers value (one worker is the serial
// sweep). StopAtFirstRoutable is speculative with more than one worker:
// higher-K iterations may start before a lower K proves routable and
// are canceled (and discarded, exactly as if never run) once it does.
func Run(ctx context.Context, pc *Context, cfg Config) (*Result, error) {
	cfg.defaults()
	// The ladder shares one mapping prefix, built here — before the
	// ladder, on the run-level recorder — so the event stream is the
	// same for every worker count.
	pc, err := withPrefix(ctx, pc, cfg)
	if err != nil {
		return &Result{BestIndex: -1}, fmt.Errorf("flow: mapping prefix: %w", err)
	}
	n := len(cfg.KSchedule)
	type slot struct {
		it   Iteration
		err  error
		done bool
	}
	slots := make([]slot, n)
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range ctxs {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()
	// The workers share the DAG read-only; warm the lazy fanout cache
	// so they cannot race on its rebuild.
	pc.DAG.PrecomputeFanouts()

	// Under StopAtFirstRoutable, a completed routable iteration lowers
	// the cutoff and cancels every higher-K iteration already in
	// flight; indices past the cutoff are skipped, and their slots are
	// never examined, because assembly stops at the routable K first.
	// par dispatches in ascending index order and stops dispatching on
	// parent cancellation, which assembly reports, so its error carries
	// nothing more.
	var mu sync.Mutex
	cutoff := n
	_ = par.ForEach(ctx, cfg.Workers, n, func(i int) error {
		mu.Lock()
		skip := i >= cutoff
		mu.Unlock()
		if skip {
			return nil
		}
		itCtx, cancel := ctxs[i], context.CancelFunc(func() {})
		if cfg.IterationTimeout > 0 {
			itCtx, cancel = context.WithTimeout(itCtx, cfg.IterationTimeout)
		}
		it, _, _, err := iterate(itCtx, pc, cfg, cfg.KSchedule[i], iterIn{ladder: true})
		cancel()
		mu.Lock()
		defer mu.Unlock()
		slots[i] = slot{it: it, err: err, done: true}
		if cfg.StopAtFirstRoutable && err == nil && it.Routable && i+1 < cutoff {
			cutoff = i + 1
			for j := i + 1; j < n; j++ {
				cancels[j]()
			}
		}
		return nil
	})

	res := &Result{BestIndex: -1}
	var failures []error
	for i := 0; i < n; i++ {
		s, k := slots[i], cfg.KSchedule[i]
		if !s.done {
			// Never ran: the claim cutoff stopped at a lower routable K
			// (assembly broke out before reaching here unless the
			// parent died), or the parent was canceled.
			if cerr := ctx.Err(); cerr != nil {
				return res, fmt.Errorf("flow: canceled at K=%g: %w", k, cerr)
			}
			break
		}
		// Ladder-order merge keeps the run-level event stream the same
		// for every worker count; slots past the routable cutoff are
		// never examined, so discarded speculative work leaves no trace.
		if m := s.it.Metrics; m != nil {
			obs.From(ctx).Merge(m.Events)
		}
		if s.err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// Parent canceled: stop the whole ladder, keep the
				// partial result.
				return res, fmt.Errorf("flow: canceled at K=%g: %w", k, cerr)
			}
			// Degrade: record the failure and move on to the next K.
			it := s.it
			it.K = k
			it.Err = s.err
			res.Iterations = append(res.Iterations, it)
			failures = append(failures, fmt.Errorf("K=%g: %w", k, s.err))
			continue
		}
		res.Iterations = append(res.Iterations, s.it)
		if beats(&s.it, res.Best()) {
			res.BestIndex = len(res.Iterations) - 1
		}
		if cfg.StopAtFirstRoutable && s.it.Routable {
			break
		}
	}
	if res.BestIndex < 0 && len(failures) > 0 {
		return res, fmt.Errorf("flow: every K failed: %w", errors.Join(failures...))
	}
	return res, nil
}

// beats is the sweep's acceptance rule: a completed iteration replaces
// the current best (nil before the first) when it has fewer failed
// connections. Ties keep the earlier iteration.
func beats(it, best *Iteration) bool {
	return best == nil || it.FailedConnections < best.FailedConnections
}

// RunOnce maps, places, and routes for a single K. Each stage runs
// under runstage.Run: panics become *runstage.StageError values,
// cfg.StageTimeout bounds each stage, and the returned error
// identifies the failing stage and K. The partially-filled Iteration
// is returned even on error (metrics up to the failing stage are
// valid). When pc lacks a compatible mapping prefix, the iteration
// builds one first (on a private copy of pc; a failure is its
// StageMapPrepare error).
//
// When ctx carries an *obs.Recorder, the iteration runs against its
// own child recorder under a "flow.iteration" span; on every exit
// path the snapshot lands in Iteration.Metrics and its events are
// merged into ctx's recorder, so even a stage failure or budget
// timeout reports the stage timings measured up to that point.
func RunOnce(ctx context.Context, pc *Context, k float64, cfg Config) (Iteration, error) {
	it, _, _, err := iterate(ctx, pc, cfg, k, iterIn{})
	return it, err
}

// withPrefix returns pc when it already carries a mapping prefix for
// cfg — same method and library content, and for a multi-die run one
// built by the k-way path (a single-die prefix partitions the wrong
// hypergraph) — and otherwise a copy of pc with one built by
// PrepareMapping. pc itself is never modified, so concurrent callers
// may share it. A context prepared for a different die count is an
// error: its DAG is already the replicated clone, so it cannot be
// prepared again.
func withPrefix(ctx context.Context, pc *Context, cfg Config) (*Context, error) {
	if pc.KWay != nil {
		if have, want := len(pc.KWay.Regions), max(cfg.Dies, 1); have != want {
			return nil, fmt.Errorf("flow: context prepared for %d dies, run asks for %d", have, want)
		}
	}
	if pc.Prep.Compatible(cfg.Method, cfg.Lib) && (cfg.Dies <= 1 || pc.KWay != nil) {
		return pc, nil
	}
	run := *pc
	if err := PrepareMapping(ctx, &run, cfg); err != nil {
		return nil, err
	}
	return &run, nil
}

// iterIn selects how one iteration maps. The zero value is a full
// cover of pc's prefix under the uniform field; field covers it under
// a K-field instead (adaptive.go). prev/edits make it an ECO iteration
// (invalidate, then re-cover the dirtied trees against prev, under
// prev's field). ladder leaves the iteration's events out of ctx's
// recorder: Run merges its rungs in ladder order instead, so the run's
// stream is the same for every worker count.
type iterIn struct {
	prev   *ECOState
	edits  mapper.EditSet
	field  *cover.KField
	ladder bool
}

// iterate is the one iteration body behind every entry point: map,
// verify, place, route (with multi-die admission), and time, each
// stage under runstage.Run. It returns the iteration row, the complete
// state the next ECO chains from, and the routing result. The state
// and result are nil on error.
func iterate(ctx context.Context, pc *Context, cfg Config, k float64, in iterIn) (it Iteration, st *ECOState, routed *route.Result, err error) {
	cfg.defaults()
	it = Iteration{K: k}
	var hotspots []route.HotSpot
	parent := obs.From(ctx)
	rec := parent.Child()
	if rec != nil {
		ctx = obs.WithRecorder(ctx, rec)
		var span *obs.Span
		ctx, span = rec.StartSpan(ctx, "flow.iteration")
		span.SetK(k)
		defer func() {
			span.End(err)
			it.Metrics = buildMetrics(rec, hotspots)
			if !in.ladder {
				parent.Merge(it.Metrics.Events)
			}
		}()
	}

	// Mapping side: invalidate + delta cover against an ECO parent, or
	// a full cover of pc's prefix under in.field.
	var prep *mapper.Prepared
	var eco *mapper.ECO
	if in.prev != nil {
		eco, err = runstage.Run(ctx, runstage.StageECO, k, cfg.StageTimeout, cfg.Hooks,
			func(ctx context.Context) (*mapper.ECO, error) {
				return in.prev.Prep.Invalidate(ctx, in.edits)
			})
		if err != nil {
			return it, nil, nil, err
		}
		prep = eco.Prep
	} else {
		if pc, err = withPrefix(ctx, pc, cfg); err != nil {
			return it, nil, nil, err
		}
		prep = pc.Prep
	}
	type mapOut struct {
		res *mapper.Result
		cov *mapper.CoverState
	}
	mo, err := runstage.Run(ctx, runstage.StageMap, k, cfg.StageTimeout, cfg.Hooks,
		func(ctx context.Context) (mapOut, error) {
			var o mapOut
			var err error
			if eco != nil {
				o.res, o.cov, err = mapper.MapECO(ctx, eco, in.prev.Cover, k)
			} else {
				o.res, o.cov, err = mapper.MapStateful(ctx, prep, k, in.field)
			}
			return o, err
		})
	if err != nil {
		return it, nil, nil, err
	}
	mres := mo.res
	it.Netlist = mres.Netlist
	it.CellArea = mres.CellArea
	it.NumCells = mres.NumCells
	it.DuplicatedCells = mres.DuplicatedCells
	it.Utilization = cfg.Layout.Utilization(mres.CellArea)

	if cfg.Verify {
		rep, err := runstage.Run(ctx, runstage.StageVerify, k, cfg.StageTimeout, cfg.Hooks,
			func(ctx context.Context) (*verify.Report, error) {
				rep, err := verify.Equivalent(ctx, prep.DAG(), mres.Netlist, verify.Options{})
				if err != nil {
					return nil, err
				}
				if !rep.Equivalent {
					return rep, fmt.Errorf("mapped netlist differs from subject DAG: %s", rep)
				}
				return rep, nil
			})
		if err != nil {
			return it, nil, nil, err
		}
		it.Verify = rep
	}

	pn := mres.Netlist.ToPlacement(pc.PIPads, pc.POList)
	var seeds []geom.Point
	if !cfg.FreshPlacement {
		seeds = make([]geom.Point, len(mres.Netlist.Instances))
		for i := range mres.Netlist.Instances {
			seeds[i] = mres.Netlist.Instances[i].Pos
		}
	}
	fastECO := eco != nil && cfg.FastECORoute
	type placeOut struct {
		pl   *place.Placement
		rows *place.RowSpans
	}
	po, err := runstage.Run(ctx, runstage.StagePlace, k, cfg.StageTimeout, cfg.Hooks,
		func(ctx context.Context) (placeOut, error) {
			if cfg.FreshPlacement {
				pl, err := place.PlaceNetlist(ctx, pn.Cells, cfg.Layout, cfg.PlaceOpts)
				return placeOut{pl: pl}, err
			}
			// Fast-mode ECO: keep the previous legalized position of every
			// cell the edit left alone and drop the rest into the nearest
			// free gap. Keeps the routing dirty region local, at the cost
			// of exact placement identity (fast mode is already non-exact).
			// An edit that leaves some cell no room falls back to a full
			// placement.
			if fastECO {
				prev := in.prev
				base := place.ECOBase{Place: prev.Place, Widths: prev.Widths, Seeds: prev.Seeds, Rows: prev.Rows}
				oldOf := alignKeys(prev.CellKeys, mres.InstGate)
				_, ecoSpan := rec.StartSpan(ctx, "place.eco")
				pl, rows, moved, err := place.PlaceECO(pn.Cells, cfg.Layout, base, seeds, oldOf)
				ecoSpan.End(err)
				if !errors.Is(err, place.ErrNoRoom) {
					if err == nil && rec != nil {
						rec.Add("eco.place_incremental", 1)
						rec.Add("eco.place_moved_cells", int64(moved))
					}
					return placeOut{pl: pl, rows: rows}, err
				}
				if rec != nil {
					rec.Add("eco.place_full", 1)
				}
			}
			pl, err := place.PlaceSeeded(ctx, pn.Cells, cfg.Layout, seeds, cfg.PlaceOpts)
			return placeOut{pl: pl}, err
		})
	if err != nil {
		return it, nil, nil, err
	}
	pl := po.pl
	netKeys := make([]int, len(pn.Cells.Nets))
	for s, ni := range pn.SigNet {
		if ni >= 0 {
			netKeys[ni] = mres.SigGate[s]
		}
	}

	ropts := cfg.RouteOpts
	if ropts.Workers == 0 {
		ropts.Workers = cfg.Workers
	}
	if cfg.Dies > 1 && len(pc.Regions) > 1 {
		ropts.Regions = pc.Regions
	}
	type routeOut struct {
		res *route.Result
		st  *route.State
	}
	ro, err := runstage.Run(ctx, runstage.StageRoute, k, cfg.StageTimeout, cfg.Hooks,
		func(ctx context.Context) (routeOut, error) {
			var o routeOut
			var err error
			if fastECO {
				oldNet := alignKeys(in.prev.NetKeys, netKeys)
				o.res, o.st, err = route.RouteECO(ctx, in.prev.Route, pn.Cells, pl, oldNet)
			} else {
				o.res, o.st, err = route.RouteNetlistState(ctx, pn.Cells, pl, cfg.Layout, ropts)
			}
			return o, err
		})
	if err != nil {
		return it, nil, nil, err
	}
	rres := ro.res
	it.Overflow = rres.Overflow
	it.FailedConnections = rres.FailedConnections
	it.WireLength = rres.WireLength
	it.CrossRegionNets = rres.CrossRegionNets
	it.Routable = rres.Routable()
	if rec != nil {
		hotspots = rres.Grid.HotSpots(maxHotSpots)
	}

	if cfg.RunSTA {
		timing, err := runstage.Run(ctx, runstage.StageSTA, k, cfg.StageTimeout, cfg.Hooks,
			func(ctx context.Context) (*sta.Result, error) {
				lens := sta.NetLengths(pn.SigNet, rres.NetLength)
				return sta.Analyze(mres.Netlist, lens, cfg.STAOpts)
			})
		if err != nil {
			return it, nil, nil, err
		}
		it.Timing = timing
	}
	return it, &ECOState{Prep: prep, Cover: mo.cov, Route: ro.st, K: k, Seeds: seeds, Place: pl, Rows: po.rows,
		Widths: pn.Cells.Widths, CellKeys: mres.InstGate, NetKeys: netKeys}, rres, nil
}

// alignKeys maps each new key to the index of the same key among old,
// or -1: the new→old map fast-mode ECO hands the placer and router.
// Keys are subject gate IDs and unique within each slice.
func alignKeys(old, new []int) []int {
	n := 0
	for _, k := range old {
		n = max(n, k+1)
	}
	at := make([]int32, n)
	for i := range at {
		at[i] = -1
	}
	for i, k := range old {
		at[k] = int32(i)
	}
	out := make([]int, len(new))
	for i, k := range new {
		out[i] = -1
		if k < n {
			out[i] = int(at[k])
		}
	}
	return out
}
