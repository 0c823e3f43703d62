package main

import (
	"context"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"casyn/internal/obs"
)

// raw holds one operation's measurements by key:
//
//	call.<func>.wall|cpu|alloc  a layer call the benchmark timed (s, s, bytes)
//	span.<name>.wall|cpu|n      spans the program recorded (s, s, count)
//	counter.<name>              counters the program recorded
//	<name>                      values the benchmark read from results
type raw map[string]float64

func (r raw) sum(keys ...string) float64 {
	s := 0.0
	for _, k := range keys {
		s += r[k]
	}
	return s
}

func (r raw) addAll(o raw, scale float64) {
	for k, v := range o {
		r[k] += v * scale
	}
}

// tracer times the benchmark's calls into the layers' public functions
// and collects the spans and counters the program records on the
// obs.Recorder it carries on the context. Every method is a no-op on a
// nil tracer: untraced runs pass nil.
type tracer struct {
	rec *obs.Recorder
	m   raw
}

// begin starts an operation with a fresh recorder.
func (t *tracer) begin() {
	if t != nil {
		t.rec, t.m = obs.New(), raw{}
	}
}

// end closes the operation and returns its measurements.
func (t *tracer) end() raw {
	if t == nil {
		return nil
	}
	snap := t.rec.Snapshot()
	for _, sp := range snap.Spans {
		t.m["span."+sp.Name+".wall"] += sp.Wall.Seconds()
		t.m["span."+sp.Name+".cpu"] += sp.CPU.Seconds()
		t.m["span."+sp.Name+".n"]++
	}
	for name, v := range snap.Counters {
		t.m["counter."+name] += float64(v)
	}
	m := t.m
	t.rec, t.m = nil, nil
	return m
}

func (t *tracer) context(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return obs.WithRecorder(ctx, t.rec)
}

// call runs f, recording its wall time, process CPU time and heap
// allocation under name.
func (t *tracer) call(name string, f func() error) error {
	if t == nil {
		return f()
	}
	cpu0, alloc0, start := cpuTime(), heapAllocs(), time.Now()
	err := f()
	t.m["call."+name+".wall"] += elapsed(start)
	t.m["call."+name+".cpu"] += (cpuTime() - cpu0).Seconds()
	t.m["call."+name+".alloc"] += float64(heapAllocs() - alloc0)
	return err
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.m[name] += v
	}
}

// callWall is the wall time of all timed calls in m.
func callWall(m raw) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "call.") && strings.HasSuffix(k, ".wall") {
			s += v
		}
	}
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// metricDef is one metric the benchmark reports. For a layer metric,
// value reads the per-round sums r and the whole-run totals tot.
type metricDef struct {
	name, unit string
	value      func(r, tot raw) float64
}

func sumOf(keys ...string) func(r, _ raw) float64 {
	return func(r, _ raw) float64 { return r.sum(keys...) }
}

func mbOf(keys ...string) func(r, _ raw) float64 {
	return func(r, _ raw) float64 { return r.sum(keys...) / 1e6 }
}

// ratioOf is num over the sum of den, over the whole run.
func ratioOf(num string, den ...string) func(_, tot raw) float64 {
	return func(_, tot raw) float64 {
		if d := tot.sum(den...); d > 0 {
			return tot[num] / d
		}
		return 0
	}
}

const (
	routeWall  = "call.route.RouteNetlist.wall"
	stageRoute = "span.stage.route.wall"
)

// layerMetrics are the traced run's per-layer numbers. Times and counts
// are per round (one operation of each bucket, plus the checks);
// shares are over the whole run. A layer's time adds the calls the
// benchmark timed to the stage spans of calls the flow drivers made
// internally; the two never overlap.
var layerMetrics = []metricDef{
	{"subject.build_s", "s", sumOf("call.casyn.SubjectFor.wall")},
	{"place.subject_s", "s", sumOf("call.flow.Prepare.wall")},
	{"place.netlist_s", "s", sumOf("call.place.PlaceNetlist.wall", "span.stage.place.wall")},
	{"place.bisect_s", "s", sumOf("span.place.bisect.wall")},
	{"place.refine_s", "s", sumOf("span.place.refine.wall")},
	{"place.cpu_s", "s", sumOf("call.flow.Prepare.cpu", "call.place.PlaceNetlist.cpu", "span.stage.place.cpu")},
	{"place.alloc_mb", "MB", mbOf("call.flow.Prepare.alloc", "call.place.PlaceNetlist.alloc")},
	{"partition.forest_s", "s", sumOf("call.partition.Partition.wall", "span.map.partition.wall")},
	{"partition.kway_s", "s", sumOf("call.partition.KWay.wall")},
	{"partition.cut_nets", "count", sumOf("partition.cut_nets")},
	{"partition.replicas", "count", sumOf("partition.replicas")},
	{"mapper.map_s", "s", sumOf("call.mapper.Map.wall", "span.stage.map.wall")},
	{"mapper.cover_s", "s", sumOf("span.map.cover.wall", "span.map.cover_only.wall",
		"span.map.cover_field.wall", "span.map.cover_field_delta.wall", "span.eco.cover_delta.wall")},
	{"mapper.matches", "count", sumOf("counter.cover.matches")},
	{"mapper.cell_area_um2", "um2", sumOf("mapper.cell_area_um2")},
	{"mapper.prepare_s", "s", sumOf("span.map.prepare.wall")},
	{"mapper.prepare_calls", "count", sumOf("span.map.prepare.n")},
	{"mapper.invalidate_s", "s", sumOf("span.eco.invalidate.wall")},
	{"mapper.cover_delta_s", "s", sumOf("span.eco.cover_delta.wall")},
	{"flow.adaptive_s", "s", sumOf("call.flow.RunAdaptive.wall")},
	{"flow.adaptive_iterations", "count", sumOf("counter.flow.adaptive_iterations")},
	{"flow.eco_s", "s", sumOf("call.flow.RunECO.wall")},
	{"flow.eco_place_incremental_share", "ratio",
		ratioOf("counter.eco.place_incremental", "counter.eco.place_incremental", "counter.eco.place_full")},
	{"flow.eco_route_nets_ripped", "count", sumOf("counter.eco.route_nets_ripped")},
	{"route.route_s", "s", sumOf(routeWall, stageRoute)},
	{"route.first_pass_s", "s", sumOf("span.route.first_pass.wall")},
	{"route.ripup_s", "s", sumOf("span.route.ripup.wall")},
	{"route.self_s", "s", func(r, _ raw) float64 {
		return r.sum(routeWall, stageRoute) - r.sum("span.route.first_pass.wall", "span.route.ripup.wall")
	}},
	{"route.reroutes", "count", sumOf("counter.route.reroutes")},
	{"route.rounds", "count", sumOf("counter.route.ripup_iterations")},
	{"route.boundary_net_share", "ratio", ratioOf("counter.route.boundary_nets", "counter.route.nets")},
	{"route.cpu_s", "s", sumOf("call.route.RouteNetlist.cpu", "span.stage.route.cpu")},
	{"route.alloc_mb", "MB", mbOf("call.route.RouteNetlist.alloc")},
	{"sta.analyze_s", "s", sumOf("call.sta.Analyze.wall", "span.stage.sta.wall")},
	{"sta.critical_path_ns", "ns", sumOf("sta.critical_path_ns")},
	{"route.violations", "count", sumOf("route.violations")},
	{"route.wirelength_um", "um", sumOf("route.wirelength_um")},
	{"proc.peak_rss_mb", "MB", sumOf("proc.peak_rss_mb")},
	{"verify.equivalent_s", "s", sumOf("call.verify.Equivalent.wall")},
	{"verify.bdd_nodes", "count", sumOf("verify.bdd_nodes")},
	{"verify.vectors", "count", sumOf("verify.vectors")},
	{"verify.proven_share", "ratio", ratioOf("verify.proven", "verify.checks")},
	{"obs.overhead_ratio", "ratio", ratioOf("pair.traced_s", "pair.untraced_s")},
	{"obs.layer_coverage", "ratio", ratioOf("op.calls_s", "op.wall_s")},
}
