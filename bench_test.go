package casyn_test

// The paper-shape benchmarks: one benchmark per table and figure of the
// paper's evaluation section, each regenerating its experiment on a
// scaled-down circuit (cmd/paper prints the full-size tables and
// figures that EXPERIMENTS.md embeds), plus per-stage
// pipeline benchmarks and the exact-mode ECO timing. The DESIGN.md
// ablation benchmarks live with their experiments in
// internal/experiments.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment's headline numbers
// (violations, areas, arrival times) so a benchmark run doubles as a
// shape check. The benchmarks write no files; full-size, per-layer
// performance is measured by cmd/casynbench.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/mapper"
	"casyn/internal/place"
	"casyn/internal/route"
)

// benchScale shrinks every benchmark circuit; the experiments keep
// their structure but finish in seconds.
const benchScale = 0.05

// BenchmarkTable1 regenerates Table 1: TOO_LARGE mapped via the SIS
// path and the structure-preserving DAGON path, placed and routed in
// one fixed die.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sis, dagon, _, err := experiments.Table1(context.Background(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sis.CellArea, "sis-area")
		b.ReportMetric(dagon.CellArea, "dagon-area")
	}
}

// BenchmarkTable2 regenerates Table 2: the SPLA K sweep.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		its, _, err := experiments.KSweep(context.Background(), bench.SPLA, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		first := its[0]
		last := its[len(its)-1]
		b.ReportMetric(first.CellArea, "area-K0")
		b.ReportMetric(last.CellArea, "area-K1")
		b.ReportMetric(float64(last.FailedConnections), "viol-K1")
	}
}

// BenchmarkTable3 regenerates Table 3: SPLA static timing across the
// three synthesis variants at their minimal routable dies.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.STATable(context.Background(), bench.SPLA, benchScale, 1)
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
		its, _, err := experiments.KSweep(context.Background(), bench.PDC, benchScale, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(its[0].CellArea, "area-K0")
		b.ReportMetric(float64(its[len(its)-1].FailedConnections), "viol-K1")
	}
}

// BenchmarkTable5 regenerates Table 5: PDC static timing.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.STATable(context.Background(), bench.PDC, benchScale, 1)
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

// Pipeline-stage micro-benchmarks.

func benchContext(b *testing.B) (*flow.Context, flow.Config) {
	b.Helper()
	spec := bench.SPLA.ScaledSpec(benchScale)
	p, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, library.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	cfg := casyn.FlowConfig(layout, casyn.Options{})
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
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, library.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := mapper.SubjectPlacement(context.Background(), d, layout, casyn.FlowConfig(layout, casyn.Options{}).PlaceOpts); err != nil {
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

// BenchmarkECO measures the incremental-synthesis payoff on the
// full-size TOO_LARGE class (~28k base gates): a single-gate edit at a
// fixed K, re-synthesized three ways — from scratch (subject
// placement, match enumeration, covering, fresh route), incrementally
// with the byte-identical full reroute, and incrementally with the
// edit-local fast placement and reroute — plus a K re-tune against the
// shared prepared prefix. It is the only timing of exact-mode ECO
// (casynbench's eco workload runs fast mode); the headline is the
// from-scratch/ECO wall-clock ratio per mode.
func BenchmarkECO(b *testing.B) {
	const k, retuneK = 0.5, 1.0
	p, err := bench.Generate(bench.TooLarge.Spec())
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		b.Fatal(err)
	}
	area := float64(d.BaseGateCount()) * 4.6 / 0.58
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		b.Fatal(err)
	}
	fcfg := casyn.FlowConfig(layout, casyn.Options{})
	fcfg.Lib = library.Default()
	fcfg.FreshPlacement = false
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
	b.ReportAllocs()
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
	b.ReportMetric(scratch.Seconds()/float64(b.N), "scratch-s")
	b.ReportMetric(exact.Seconds()/float64(b.N), "eco-exact-s")
	b.ReportMetric(fast.Seconds()/float64(b.N), "eco-fast-s")
	b.ReportMetric(retune.Seconds()/float64(b.N), "retune-s")
	b.ReportMetric(float64(scratch)/float64(exact), "speedup-exact")
	b.ReportMetric(float64(scratch)/float64(fast), "speedup-fast")
}
