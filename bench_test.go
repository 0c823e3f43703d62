package casyn

// The repository benchmark harness: one benchmark per table and figure
// of the paper's evaluation section, each regenerating its experiment
// on a scaled-down circuit (the full-size tables are printed by the
// cmd/ksweep, cmd/timing, and cmd/table1 tools), plus the DESIGN.md
// ablations and per-stage pipeline benchmarks.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment's headline numbers
// (violations, areas, arrival times) so a benchmark run doubles as a
// shape check.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"math/rand"

	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/mapper"
	"casyn/internal/obs"
	"casyn/internal/place"
	"casyn/internal/route"
	"casyn/internal/verify"
)

// benchScale shrinks every benchmark circuit; the experiments keep
// their structure but finish in seconds.
const benchScale = 0.05

// BenchmarkTable1 regenerates Table 1: TOO_LARGE mapped via the SIS
// path and the structure-preserving DAGON path, placed and routed in
// one fixed die.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table1(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].CellArea, "sis-area")
		b.ReportMetric(rows[1].CellArea, "dagon-area")
	}
}

// BenchmarkTable2 regenerates Table 2: the SPLA K sweep.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.KSweep(context.Background(), bench.SPLA, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		first := res.Rows[0]
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(first.CellArea, "area-K0")
		b.ReportMetric(last.CellArea, "area-K1")
		b.ReportMetric(float64(last.Violations), "viol-K1")
	}
}

// BenchmarkTable3 regenerates Table 3: SPLA static timing across the
// three synthesis variants at their minimal routable dies.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.STATable(context.Background(), bench.SPLA, benchScale, 0.001, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Arrival, "ns-K0")
		b.ReportMetric(rows[1].Arrival, "ns-midK")
		b.ReportMetric(rows[2].Arrival, "ns-SIS")
	}
}

// BenchmarkTable4 regenerates Table 4: the PDC K sweep.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.KSweep(context.Background(), bench.PDC, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].CellArea, "area-K0")
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].Violations), "viol-K1")
	}
}

// BenchmarkTable5 regenerates Table 5: PDC static timing.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.STATable(context.Background(), bench.PDC, benchScale, 0.001, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Arrival, "ns-K0")
		b.ReportMetric(rows[2].Arrival, "ns-SIS")
	}
}

// BenchmarkFigure1 regenerates Figure 1: the two mappings of the
// motivating example.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		minArea, congestion, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(minArea.Wire, "minarea-wire")
		b.ReportMetric(congestion.Wire, "cong-wire")
	}
}

// BenchmarkFigure3 regenerates Figure 3: the modified design flow
// iterating K until the congestion map is clean.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(context.Background(), bench.SPLA, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Iterations)), "iterations")
	}
}

// BenchmarkAblationPartition compares the three DAG partitioning
// schemes (DESIGN.md ablation).
func BenchmarkAblationPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PartitionAblation(context.Background(), bench.SPLA, benchScale, 0.001)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].CellArea, "pdp-area")
		b.ReportMetric(rows[1].CellArea, "dagon-area")
	}
}

// BenchmarkAblationWireCost compares the paper's two-level WIRE scope
// against WIRE1-only and the transitive-fanin cost of Pedram–Bhat [9].
func BenchmarkAblationWireCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WireCostAblation(context.Background(), bench.SPLA, benchScale, 0.005)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].WireEstimate, "two-level")
		b.ReportMetric(rows[2].WireEstimate, "transitive")
	}
}

// Pipeline-stage micro-benchmarks.

func benchContext(b *testing.B) (*flow.Context, flow.Config) {
	b.Helper()
	spec := bench.SPLA.ScaledSpec(benchScale)
	p, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct, 0)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, library.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	cfg := flow.Config{
		Layout:         layout,
		PlaceOpts:      experiments.PlaceOpts(),
		RouteOpts:      experiments.RouteOpts(),
		FreshPlacement: true,
	}
	pc, err := flow.Prepare(context.Background(), d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return pc, cfg
}

// BenchmarkSubjectPlacement measures the once-per-design placement of
// the technology-independent netlist.
func BenchmarkSubjectPlacement(b *testing.B) {
	spec := bench.SPLA.ScaledSpec(benchScale)
	p, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct, 0)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, library.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := mapper.SubjectPlacement(context.Background(), d, layout, experiments.PlaceOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMap measures one congestion-aware technology mapping.
func BenchmarkMap(b *testing.B) {
	pc, _ := benchContext(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapper.Map(context.Background(), pc.DAG, mapper.Input{Pos: pc.Pos, POPads: pc.POPads}, mapper.Options{K: 0.001})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NumCells), "cells")
	}
}

// BenchmarkPlaceAndRoute measures placement plus global routing of a
// mapped netlist.
func BenchmarkPlaceAndRoute(b *testing.B) {
	pc, cfg := benchContext(b)
	mres, err := mapper.Map(context.Background(), pc.DAG, mapper.Input{Pos: pc.Pos, POPads: pc.POPads}, mapper.Options{K: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	pn := mres.Netlist.ToPlacement(pc.PIPads, pc.POList)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := place.PlaceNetlist(context.Background(), pn.Cells, cfg.Layout, cfg.PlaceOpts)
		if err != nil {
			b.Fatal(err)
		}
		rres, err := route.RouteNetlist(context.Background(), pn.Cells, pl, cfg.Layout, cfg.RouteOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rres.WireLength, "wirelength")
	}
}

// BenchmarkFullFlow measures one complete flow iteration (map, place,
// route, STA).
func BenchmarkFullFlow(b *testing.B) {
	pc, cfg := benchContext(b)
	cfg.RunSTA = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := flow.RunOnce(context.Background(), pc, 0.001, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(it.Timing.MaxArrival, "arrival-ns")
	}
}

// BenchmarkKSweepParallel measures the SPLA K sweep serial
// (Workers: 1) against the full worker pool (Workers: 0 = GOMAXPROCS)
// and reports the speedup. Each run also writes BENCH_parallel.json so
// the perf trajectory is tracked across PRs; on a single-CPU machine
// the speedup is honestly ~1.0 — the determinism tests, not this
// number, guard correctness there.
func BenchmarkKSweepParallel(b *testing.B) {
	pc, cfg := benchContext(b)
	cfg.KSchedule = experiments.KSchedule()
	run := func(workers int) time.Duration {
		c := cfg
		c.Workers = workers
		start := time.Now()
		if _, err := flow.Run(context.Background(), pc, c); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial += run(1)
		parallel += run(0)
	}
	b.StopTimer()
	speedup := float64(serial) / float64(parallel)
	b.ReportMetric(serial.Seconds()/float64(b.N), "serial-s")
	b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel-s")
	b.ReportMetric(speedup, "speedup")
	artifact := struct {
		Bench      string  `json:"bench"`
		Scale      float64 `json:"scale"`
		KValues    int     `json:"k_values"`
		Workers    int     `json:"workers"`
		SerialNs   int64   `json:"serial_ns"`
		ParallelNs int64   `json:"parallel_ns"`
		Speedup    float64 `json:"speedup"`
	}{
		Bench:      "spla-ksweep",
		Scale:      benchScale,
		KValues:    len(cfg.KSchedule),
		Workers:    runtime.GOMAXPROCS(0),
		SerialNs:   serial.Nanoseconds() / int64(b.N),
		ParallelNs: parallel.Nanoseconds() / int64(b.N),
		Speedup:    speedup,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKSweepPrepared measures the shared K-sweep prefix: mapping
// the full 14-rung ladder with a fresh mapper.Map per K against one
// mapper.Prepare plus a MapPrepared per K. Both sides run serially so
// the ratio isolates the algorithmic win (hoisted partitioning and
// match enumeration), not goroutine scheduling. Writes
// BENCH_prepared.json so the speedup is tracked across PRs.
func BenchmarkKSweepPrepared(b *testing.B) {
	pc, _ := benchContext(b)
	ks := experiments.KSchedule()
	in := mapper.Input{Pos: pc.Pos, POPads: pc.POPads}
	opts := mapper.Options{Workers: 1}
	var serial, prepared time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		for _, k := range ks {
			o := opts
			o.K = k
			if _, err := mapper.Map(context.Background(), pc.DAG, in, o); err != nil {
				b.Fatal(err)
			}
		}
		serial += time.Since(start)

		start = time.Now()
		prep, err := mapper.Prepare(context.Background(), pc.DAG, in, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range ks {
			if _, err := mapper.MapPrepared(context.Background(), prep, k); err != nil {
				b.Fatal(err)
			}
		}
		prepared += time.Since(start)
	}
	b.StopTimer()
	speedup := float64(serial) / float64(prepared)
	b.ReportMetric(serial.Seconds()/float64(b.N), "serial-s")
	b.ReportMetric(prepared.Seconds()/float64(b.N), "prepared-s")
	b.ReportMetric(speedup, "speedup")
	artifact := struct {
		Bench      string  `json:"bench"`
		Scale      float64 `json:"scale"`
		KValues    int     `json:"k_values"`
		SerialNs   int64   `json:"serial_ns"`
		PreparedNs int64   `json:"prepared_ns"`
		Speedup    float64 `json:"speedup"`
	}{
		Bench:      "spla-ksweep-mapping",
		Scale:      benchScale,
		KValues:    len(ks),
		SerialNs:   serial.Nanoseconds() / int64(b.N),
		PreparedNs: prepared.Nanoseconds() / int64(b.N),
		Speedup:    speedup,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_prepared.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObsOverhead measures what the observability layer costs: a
// full flow iteration with a recorder on the context against the same
// iteration with observability disabled (the nil-recorder no-op path).
// Writes BENCH_obs.json so the overhead trajectory is tracked across
// PRs — the layer's contract is that the ratio stays ~1.0 and the
// event counts stay nonzero.
func BenchmarkObsOverhead(b *testing.B) {
	pc, cfg := benchContext(b)
	var plain, instrumented time.Duration
	var spans, counters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := flow.RunOnce(context.Background(), pc, 0.001, cfg); err != nil {
			b.Fatal(err)
		}
		plain += time.Since(start)

		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		start = time.Now()
		it, err := flow.RunOnce(ctx, pc, 0.001, cfg)
		if err != nil {
			b.Fatal(err)
		}
		instrumented += time.Since(start)
		if it.Metrics == nil {
			b.Fatal("instrumented run produced no metrics")
		}
		snap := it.Metrics.Events
		spans, counters = len(snap.Spans), len(snap.Counters)
	}
	b.StopTimer()
	overhead := float64(instrumented) / float64(plain)
	b.ReportMetric(plain.Seconds()/float64(b.N), "plain-s")
	b.ReportMetric(instrumented.Seconds()/float64(b.N), "instrumented-s")
	b.ReportMetric(overhead, "overhead-ratio")
	artifact := struct {
		Bench          string  `json:"bench"`
		Scale          float64 `json:"scale"`
		PlainNs        int64   `json:"plain_ns"`
		InstrumentedNs int64   `json:"instrumented_ns"`
		OverheadRatio  float64 `json:"overhead_ratio"`
		Spans          int     `json:"spans"`
		Counters       int     `json:"counters"`
	}{
		Bench:          "spla-flow-iteration",
		Scale:          benchScale,
		PlainNs:        plain.Nanoseconds() / int64(b.N),
		InstrumentedNs: instrumented.Nanoseconds() / int64(b.N),
		OverheadRatio:  overhead,
		Spans:          spans,
		Counters:       counters,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRouteParallel measures the region-partitioned parallel
// rip-up/reroute at paper scale: synthetic placed netlists
// (internal/bench RouteSpec, 100k+ gates with congestion hotspots)
// routed with Workers: 1 against the full pool (Workers: 0). It
// reports the rip-up span's wall time on both sides, the speedup, the
// negotiation round count, and the final overflow — and fails if the
// parallel overflow differs from the serial baseline, since the
// negotiation is byte-identical at any worker count. Writes
// BENCH_route.json so the routing perf trajectory is tracked across
// PRs; on a single-CPU machine the speedup is honestly ~1.0 — the
// determinism tests, not this number, guard correctness there. Set
// CASYN_ROUTE_BENCH_FULL=1 to include the 1M-gate point.
func BenchmarkRouteParallel(b *testing.B) {
	gates := []int{100_000, 250_000}
	if os.Getenv("CASYN_ROUTE_BENCH_FULL") != "" {
		gates = append(gates, 1_000_000)
	}
	type row struct {
		Gates           int     `json:"gates"`
		Nets            int     `json:"nets"`
		Segments        int64   `json:"segments"`
		SerialRipupNs   int64   `json:"serial_ripup_ns"`
		ParallelRipupNs int64   `json:"parallel_ripup_ns"`
		Speedup         float64 `json:"speedup"`
		Rounds          int     `json:"rounds"`
		Regions         int64   `json:"regions"`
		BoundaryNets    int64   `json:"boundary_nets"`
		InitialOverflow int     `json:"initial_overflow"`
		FinalOverflow   int     `json:"final_overflow"`
	}
	// The testing package may invoke a sub-benchmark several times
	// (N=1 probe, then the measured run); keep only the last — largest
	// N — measurement per scale.
	rowBy := map[int]row{}
	for _, g := range gates {
		g := g
		b.Run(fmt.Sprintf("gates=%d", g), func(b *testing.B) {
			nl, pl, layout, err := bench.RouteSpecAt(g).Generate()
			if err != nil {
				b.Fatal(err)
			}
			// The flow's calibrated capacity model, with a longer
			// negotiation budget: congestion here is real but clearable,
			// so the rounds do productive work.
			opts := experiments.RouteOpts()
			opts.RipupIterations = 6
			type outcome struct {
				ripup time.Duration
				res   *route.Result
				snap  obs.Snapshot
			}
			run := func(workers int) outcome {
				o := opts
				o.Workers = workers
				rec := obs.New()
				ctx := obs.WithRecorder(context.Background(), rec)
				res, err := route.RouteNetlist(ctx, nl, pl, layout, o)
				if err != nil {
					b.Fatal(err)
				}
				out := outcome{res: res, snap: rec.Snapshot()}
				for _, s := range out.snap.Spans {
					if s.Name == "route.ripup" {
						out.ripup = s.Wall
					}
				}
				return out
			}
			run(0) // warm the allocator so run order doesn't bias the ratio
			var serial, parallel time.Duration
			var so, po outcome
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				so = run(1)
				serial += so.ripup
				po = run(0)
				parallel += po.ripup
			}
			b.StopTimer()
			if so.res.Violations != po.res.Violations {
				b.Fatalf("parallel overflow %d != serial baseline %d",
					po.res.Violations, so.res.Violations)
			}
			if so.res.RipupRounds == 0 {
				b.Fatal("benchmark circuit routed without congestion — nothing to negotiate")
			}
			speedup := float64(serial) / float64(parallel)
			b.ReportMetric(serial.Seconds()/float64(b.N), "serial-ripup-s")
			b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel-ripup-s")
			b.ReportMetric(speedup, "speedup")
			b.ReportMetric(float64(po.res.Violations), "overflow")
			rowBy[g] = row{
				Gates:           g,
				Nets:            len(nl.Nets),
				Segments:        po.snap.Counters["route.segments"],
				SerialRipupNs:   serial.Nanoseconds() / int64(b.N),
				ParallelRipupNs: parallel.Nanoseconds() / int64(b.N),
				Speedup:         speedup,
				Rounds:          po.res.RipupRounds,
				Regions:         po.snap.Counters["route.regions"],
				BoundaryNets:    po.snap.Counters["route.boundary_nets"],
				InitialOverflow: int(po.snap.Histograms["route.round_overflow"].Max),
				FinalOverflow:   po.res.Violations,
			}
		})
	}
	var rows []row
	for _, g := range gates {
		if r, ok := rowBy[g]; ok {
			rows = append(rows, r)
		}
	}
	artifact := struct {
		Bench   string `json:"bench"`
		Workers int    `json:"workers"`
		Rows    []row  `json:"rows"`
	}{Bench: "route-ripup-parallel", Workers: runtime.GOMAXPROCS(0), Rows: rows}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_route.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdaptive measures the closed-loop congestion controller
// against the full 14-rung open-loop K ladder on the flagship
// congested operating point (SPLA at 55% target utilization, router
// capacity scaled to 1.3, seeded placement — the regime where the
// baseline K is unroutable and K choice actually matters). Both arms
// share one prepared prefix; the headline is the wall-clock ratio and
// the covering-iteration count (14 rungs vs ≤3 routed iterations).
// The final overflow is cross-checked: the accepted adaptive iteration
// must be no worse than the ladder's accepted rung. Writes
// BENCH_adaptive.json so the trajectory is tracked across PRs.
func BenchmarkAdaptive(b *testing.B) {
	const tightness, capScale = 0.55, 1.3
	p, err := bench.Generate(bench.SPLA.ScaledSpec(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct, 0)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/tightness, 1.0, library.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	cfg := flow.Config{
		Layout:         layout,
		Lib:            library.Default(),
		PlaceOpts:      place.Options{Seed: 1},
		RouteOpts:      route.Options{CapacityScale: capScale},
		FreshPlacement: false,
		Workers:        4,
	}
	ctx := context.Background()
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := flow.PrepareMapping(ctx, pc, cfg); err != nil {
		b.Fatal(err)
	}
	lcfg := cfg
	lcfg.KSchedule = flow.DefaultKSchedule()

	var ladderWall, adaptiveWall time.Duration
	var ladderViol, adaptiveViol, adaptiveIters int
	var converged bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		ladder, err := flow.Run(ctx, pc, lcfg)
		if err != nil {
			b.Fatal(err)
		}
		ladderWall += time.Since(start)

		start = time.Now()
		ares, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{})
		if err != nil {
			b.Fatal(err)
		}
		adaptiveWall += time.Since(start)

		lbest, abest := ladder.Best(), ares.Best()
		if lbest == nil || abest == nil {
			b.Fatal("an arm produced no iterations")
		}
		if !abest.Routable && abest.Violations > lbest.Violations {
			b.Fatalf("adaptive overflow %d worse than ladder best %d",
				abest.Violations, lbest.Violations)
		}
		ladderViol, adaptiveViol = lbest.Violations, abest.Violations
		adaptiveIters, converged = ares.RoutedIterations(), ares.Converged
	}
	b.StopTimer()
	if !converged {
		b.Fatal("adaptive loop did not converge within its budget")
	}
	speedup := float64(ladderWall) / float64(adaptiveWall)
	b.ReportMetric(ladderWall.Seconds()/float64(b.N), "ladder-s")
	b.ReportMetric(adaptiveWall.Seconds()/float64(b.N), "adaptive-s")
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(adaptiveIters), "adaptive-iterations")
	b.ReportMetric(float64(adaptiveViol), "adaptive-overflow")
	artifact := struct {
		Bench         string  `json:"bench"`
		Scale         float64 `json:"scale"`
		Tightness     float64 `json:"tightness"`
		CapacityScale float64 `json:"capacity_scale"`
		LadderRungs   int     `json:"ladder_rungs"`
		AdaptiveIters int     `json:"adaptive_iterations"`
		LadderNs      int64   `json:"ladder_ns"`
		AdaptiveNs    int64   `json:"adaptive_ns"`
		Speedup       float64 `json:"speedup"`
		LadderViol    int     `json:"ladder_overflow"`
		AdaptiveViol  int     `json:"adaptive_overflow"`
		Converged     bool    `json:"converged"`
	}{
		Bench:         "spla-adaptive-vs-ladder",
		Scale:         benchScale,
		Tightness:     tightness,
		CapacityScale: capScale,
		LadderRungs:   len(lcfg.KSchedule),
		AdaptiveIters: adaptiveIters,
		LadderNs:      ladderWall.Nanoseconds() / int64(b.N),
		AdaptiveNs:    adaptiveWall.Nanoseconds() / int64(b.N),
		Speedup:       speedup,
		LadderViol:    ladderViol,
		AdaptiveViol:  adaptiveViol,
		Converged:     converged,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_adaptive.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// Equivalence-checker benchmarks: the simulation engine's vector
// throughput and the BDD backend's proof cost on the standard
// benchmark circuit (subject DAG vs its mapped netlist). Both merge
// their numbers into BENCH_verify.json so the checker's perf
// trajectory is tracked across PRs alongside the parallel sweep's.

// verifyPair maps the benchmark circuit once and returns the DAG and
// netlist the checker compares.
func verifyPair(b *testing.B) (*flow.Context, *mapper.Result) {
	b.Helper()
	pc, _ := benchContext(b)
	mres, err := mapper.Map(context.Background(), pc.DAG, mapper.Input{Pos: pc.Pos, POPads: pc.POPads}, mapper.Options{K: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	return pc, mres
}

// writeVerifyBench merges one benchmark's numbers into
// BENCH_verify.json (each benchmark owns a key, so either can run
// alone without clobbering the other).
func writeVerifyBench(b *testing.B, key string, value map[string]any) {
	b.Helper()
	artifact := map[string]any{}
	if data, err := os.ReadFile("BENCH_verify.json"); err == nil {
		// Best effort: a corrupt or hand-edited file is overwritten.
		_ = json.Unmarshal(data, &artifact)
	}
	artifact[key] = value
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_verify.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVerifySim measures the 64-way bit-parallel simulation
// engine alone (SimOnly: directed patterns plus seeded random
// batches, no exact backend).
func BenchmarkVerifySim(b *testing.B) {
	pc, mres := verifyPair(b)
	opts := verify.Options{SimOnly: true}
	var vectors, inputs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Equivalent(context.Background(), pc.DAG, mres.Netlist, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Equivalent {
			b.Fatalf("benchmark pair inequivalent: %s", rep)
		}
		vectors, inputs = rep.VectorsSimulated, rep.Inputs
	}
	b.StopTimer()
	nsPerVector := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(vectors)
	b.ReportMetric(float64(vectors), "vectors")
	b.ReportMetric(nsPerVector, "ns/vector")
	writeVerifyBench(b, "sim", map[string]any{
		"bench":         "spla-dag-vs-netlist",
		"scale":         benchScale,
		"inputs":        inputs,
		"vectors":       vectors,
		"ns_per_vector": nsPerVector,
		"ns_per_check":  b.Elapsed().Nanoseconds() / int64(b.N),
	})
}

// BenchmarkVerifyBDD measures the full proof: simulation phase plus
// the hash-consed ROBDD backend running to equal roots.
func BenchmarkVerifyBDD(b *testing.B) {
	pc, mres := verifyPair(b)
	var nodes, inputs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := verify.Equivalent(context.Background(), pc.DAG, mres.Netlist, verify.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Proven || rep.Method != verify.MethodBDD {
			b.Fatalf("expected a BDD proof, got %s", rep)
		}
		nodes, inputs = rep.BDDNodes, rep.Inputs
	}
	b.StopTimer()
	b.ReportMetric(float64(nodes), "bdd-nodes")
	writeVerifyBench(b, "bdd", map[string]any{
		"bench":        "spla-dag-vs-netlist",
		"scale":        benchScale,
		"inputs":       inputs,
		"bdd_nodes":    nodes,
		"ns_per_proof": b.Elapsed().Nanoseconds() / int64(b.N),
	})
}

// BenchmarkECO measures the incremental-synthesis payoff on the
// full-size TOO_LARGE class (~28k base gates): a single-gate edit at a
// fixed K, re-synthesized three ways — from scratch (subject
// placement, match enumeration, covering, fresh route), incrementally
// with the byte-identical full reroute, and incrementally with the
// edit-local fast placement and reroute — plus a K re-tune against the shared
// prepared prefix. Writes BENCH_eco.json; the headline is the
// from-scratch/fast-ECO wall-clock ratio (the acceptance bar is 10×).
func BenchmarkECO(b *testing.B) {
	const k, retuneK = 0.5, 1.0
	p, err := bench.Generate(bench.TooLarge.Spec())
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct, 0)
	if err != nil {
		b.Fatal(err)
	}
	area := float64(d.BaseGateCount()) * 4.6 / 0.58
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	fcfg := flow.Config{
		Layout:    layout,
		Lib:       library.Default(),
		PlaceOpts: place.Options{Seed: 1, RefinePasses: 8},
		RouteOpts: experiments.RouteOpts(),
		KSchedule: []float64{k},
	}
	ctx := context.Background()
	pc, err := flow.Prepare(ctx, d, fcfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := flow.PrepareMapping(ctx, pc, fcfg); err != nil {
		b.Fatal(err)
	}
	_, st, err := flow.RunStateful(ctx, pc, k, fcfg)
	if err != nil {
		b.Fatal(err)
	}
	edits := mapper.RandomEdits(st.Prep, rand.New(rand.NewSource(1)), 1)
	if len(edits.Edits) != 1 {
		b.Fatalf("wanted a single-gate edit, got %d", len(edits.Edits))
	}
	// The from-scratch side synthesizes the *edited* design, obtained
	// from one untimed incremental run.
	_, stEdited, err := flow.RunECO(ctx, pc, st, edits, fcfg)
	if err != nil {
		b.Fatal(err)
	}
	editedDAG := stEdited.Prep.DAG()
	fastCfg := fcfg
	fastCfg.FastECORoute = true

	var scratch, exact, fast, retune time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rpc, err := flow.Prepare(ctx, editedDAG, fcfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := flow.PrepareMapping(ctx, rpc, fcfg); err != nil {
			b.Fatal(err)
		}
		if _, err := flow.RunOnce(ctx, rpc, k, fcfg); err != nil {
			b.Fatal(err)
		}
		scratch += time.Since(t0)

		t0 = time.Now()
		if _, _, err := flow.RunECO(ctx, pc, st, edits, fcfg); err != nil {
			b.Fatal(err)
		}
		exact += time.Since(t0)

		t0 = time.Now()
		if _, _, err := flow.RunECO(ctx, pc, st, edits, fastCfg); err != nil {
			b.Fatal(err)
		}
		fast += time.Since(t0)

		// K re-tune: a new congestion factor against the shared
		// K-invariant prefix (no re-placement, no re-matching).
		t0 = time.Now()
		if _, _, err := flow.RunStateful(ctx, pc, retuneK, fcfg); err != nil {
			b.Fatal(err)
		}
		retune += time.Since(t0)
	}
	b.StopTimer()
	n := int64(b.N)
	speedupExact := float64(scratch) / float64(exact)
	speedupFast := float64(scratch) / float64(fast)
	b.ReportMetric(scratch.Seconds()/float64(b.N), "scratch-s")
	b.ReportMetric(exact.Seconds()/float64(b.N), "eco-exact-s")
	b.ReportMetric(fast.Seconds()/float64(b.N), "eco-fast-s")
	b.ReportMetric(retune.Seconds()/float64(b.N), "retune-s")
	b.ReportMetric(speedupFast, "speedup-fast")
	artifact := struct {
		Bench        string  `json:"bench"`
		Gates        int     `json:"gates"`
		K            float64 `json:"k"`
		RetuneK      float64 `json:"retune_k"`
		Edits        int     `json:"edits"`
		ScratchNs    int64   `json:"from_scratch_ns"`
		EcoExactNs   int64   `json:"eco_exact_ns"`
		EcoFastNs    int64   `json:"eco_fast_ns"`
		RetuneNs     int64   `json:"retune_ns"`
		SpeedupExact float64 `json:"speedup_exact"`
		SpeedupFast  float64 `json:"speedup_fast"`
	}{
		Bench:        "too_large-single-edit",
		Gates:        d.BaseGateCount(),
		K:            k,
		RetuneK:      retuneK,
		Edits:        len(edits.Edits),
		ScratchNs:    scratch.Nanoseconds() / n,
		EcoExactNs:   exact.Nanoseconds() / n,
		EcoFastNs:    fast.Nanoseconds() / n,
		RetuneNs:     retune.Nanoseconds() / n,
		SpeedupExact: speedupExact,
		SpeedupFast:  speedupFast,
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_eco.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKWay measures direct k-way partitioning with cut-driver
// replication against the recursive-bisection seed: the two bench
// circuits end to end (cut nets, Steiner cost, replicas, routed
// overflow over identical die regions) plus synthetic 100k/250k-gate
// partition-only pressure points. Writes BENCH_partition.json so the
// k-way trajectory is tracked across PRs. Set CASYN_KWAY_BENCH_FULL=1
// to add a 1M-gate pressure point.
func BenchmarkKWay(b *testing.B) {
	type namedRow struct {
		name string
		run  func() (*experiments.KWayRow, error)
	}
	cases := []namedRow{
		{"spla", func() (*experiments.KWayRow, error) {
			return experiments.KWayVsBisect(context.Background(), bench.SPLA, benchScale, 2, 1)
		}},
		{"pdc", func() (*experiments.KWayRow, error) {
			return experiments.KWayVsBisect(context.Background(), bench.PDC, benchScale, 2, 1)
		}},
		{"synthetic-100k", func() (*experiments.KWayRow, error) {
			return experiments.KWayPressure(100_000, 64, 4, 1)
		}},
		{"synthetic-250k", func() (*experiments.KWayRow, error) {
			return experiments.KWayPressure(250_000, 64, 4, 1)
		}},
	}
	if os.Getenv("CASYN_KWAY_BENCH_FULL") != "" {
		cases = append(cases, namedRow{"synthetic-1m", func() (*experiments.KWayRow, error) {
			return experiments.KWayPressure(1_000_000, 64, 4, 1)
		}})
	}
	rowBy := map[string]experiments.KWayRow{}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var row *experiments.KWayRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = c.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			if row.CutNetsKWay > row.CutNetsBisect || row.SteinerKWay > row.SteinerBisect {
				b.Fatalf("k-way scored worse than its bisection seed: %+v", *row)
			}
			b.ReportMetric(float64(row.CutNetsBisect), "cut-bisect")
			b.ReportMetric(float64(row.CutNetsKWay), "cut-kway")
			b.ReportMetric(row.SteinerBisect, "steiner-bisect")
			b.ReportMetric(row.SteinerKWay, "steiner-kway")
			b.ReportMetric(float64(row.Replicas), "replicas")
			rowBy[c.name] = *row
		})
	}
	var rows []experiments.KWayRow
	for _, c := range cases {
		if r, ok := rowBy[c.name]; ok {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return // sub-benchmark filter excluded everything
	}
	artifact := struct {
		Bench string                `json:"bench"`
		Rows  []experiments.KWayRow `json:"rows"`
	}{Bench: "kway-vs-bisect", Rows: rows}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_partition.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
