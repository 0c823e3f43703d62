package flow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"casyn/internal/obs"
	"casyn/internal/runstage"
)

// Fingerprint renders the deterministic subset of the metrics as a
// stable string: the event-stream fingerprint (counters, histogram
// buckets, span counts), the hot-spot list, and the stage sequence
// without its durations. Two iterations that did the same work — for
// any worker count — produce identical fingerprints.
func (m *Metrics) Fingerprint() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(m.Events.Fingerprint())
	for _, st := range m.Stages {
		fmt.Fprintf(&b, "stage %s err=%q\n", st.Stage, st.Err)
	}
	for _, h := range m.HotSpots {
		fmt.Fprintf(&b, "hotspot (%d,%d) horizontal=%v overflow=%g congestion=%g\n",
			h.X, h.Y, h.Horizontal, h.Overflow, h.Congestion)
	}
	return b.String()
}

// TestRunOnceMetricsSnapshot checks the shape of one iteration's
// Metrics: nil without a recorder, and with one — a span per pipeline
// stage, the congestion histogram, the coverer's DP counters, and
// stage timings surfaced from inside runstage.Run.
func TestRunOnceMetricsSnapshot(t *testing.T) {
	pc, cfg := prepared(t, 0.55)

	it, err := RunOnce(context.Background(), pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if it.Metrics != nil {
		t.Fatal("Metrics set without a recorder on ctx")
	}

	ctx := obs.WithRecorder(context.Background(), obs.New())
	it, err = RunOnce(ctx, pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := it.Metrics
	if m == nil {
		t.Fatal("Metrics missing with a recorder on ctx")
	}
	counts := m.Events.SpanCounts()
	for _, name := range []string{
		"flow.iteration", "stage.map", "stage.place", "stage.route",
		"map.prepare", "map.partition", "map.cover_only", "map.reconstruct", "route.first_pass",
	} {
		if counts[name] == 0 {
			t.Errorf("no %q span in iteration metrics", name)
		}
	}
	if _, ok := m.Events.Histograms["route.congestion"]; !ok {
		t.Error("congestion histogram missing")
	}
	if _, ok := m.Events.Histograms["route.net_hpwl_um"]; !ok {
		t.Error("net HPWL histogram missing")
	}
	if m.Events.Counters["cover.solutions"] == 0 {
		t.Error("cover.solutions counter missing or zero")
	}
	if int(m.Events.Counters["map.cells"]) != it.NumCells {
		t.Errorf("map.cells = %d, want %d", m.Events.Counters["map.cells"], it.NumCells)
	}
	// pc carries no mapping prefix, so the iteration builds one first.
	wantStages := []runstage.Stage{runstage.StageMapPrepare, runstage.StageMap, runstage.StagePlace, runstage.StageRoute}
	if len(m.Stages) != len(wantStages) {
		t.Fatalf("stages = %v, want %v", m.Stages, wantStages)
	}
	for i, st := range m.Stages {
		if st.Stage != wantStages[i] {
			t.Errorf("stage %d = %s, want %s", i, st.Stage, wantStages[i])
		}
		if st.Wall <= 0 {
			t.Errorf("stage %s wall = %v, want > 0", st.Stage, st.Wall)
		}
		if st.Err != "" {
			t.Errorf("stage %s err = %q", st.Stage, st.Err)
		}
	}
}

// TestMetricsWorkerIndependence is the determinism contract: the
// deterministic fields of every iteration's Metrics — and of the
// run-level merged recorder — are byte-identical between a serial
// sweep and a 4-worker sweep.
func TestMetricsWorkerIndependence(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001, 0.5}

	type sweep struct {
		iters []string
		run   string
	}
	runSweep := func(workers int) sweep {
		c := cfg
		c.Workers = workers
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		res, err := Run(ctx, pc, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var s sweep
		for _, it := range res.Iterations {
			if it.Metrics == nil {
				t.Fatalf("workers=%d: iteration K=%g has no metrics", workers, it.K)
			}
			s.iters = append(s.iters, it.Metrics.Fingerprint())
		}
		s.run = rec.Snapshot().Fingerprint()
		return s
	}

	serial := runSweep(1)
	parallel := runSweep(4)
	if len(serial.iters) != len(parallel.iters) {
		t.Fatalf("iteration count differs: %d vs %d", len(serial.iters), len(parallel.iters))
	}
	for i := range serial.iters {
		if serial.iters[i] != parallel.iters[i] {
			t.Errorf("iteration %d (K=%g) fingerprint differs between 1 and 4 workers:\n--- serial\n%s\n--- parallel\n%s",
				i, cfg.KSchedule[i], serial.iters[i], parallel.iters[i])
		}
	}
	if serial.run != parallel.run {
		t.Errorf("run-level fingerprint differs between 1 and 4 workers:\n--- serial\n%s\n--- parallel\n%s",
			serial.run, parallel.run)
	}
}

// TestMetricsOnBudgetTimeout is the satellite fix's regression test: an
// iteration killed by the per-stage budget still reports the timings of
// the stages that completed, plus the failing stage with its partial
// elapsed time and error — surfaced from inside runstage.Run, not
// re-measured.
func TestMetricsOnBudgetTimeout(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	// Same budget discipline as TestStageTimeoutDegrades: wide enough
	// that the healthy map/place stages finish under -race on a loaded
	// machine, while the stalled route stage still hits the deadline.
	cfg.StageTimeout = 2 * time.Second
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageRoute, AllK: true, Delay: 30 * time.Second},
	}}

	ctx := obs.WithRecorder(context.Background(), obs.New())
	it, err := RunOnce(ctx, pc, 0.001, cfg)
	if err == nil {
		t.Fatal("expected a route-stage timeout")
	}
	se := runstage.AsStage(err)
	if se == nil || se.Stage != runstage.StageRoute || !se.Timeout() {
		t.Fatalf("err = %v, want route-stage timeout", err)
	}

	m := it.Metrics
	if m == nil {
		t.Fatal("failed iteration lost its metrics")
	}
	wantStages := []runstage.Stage{runstage.StageMapPrepare, runstage.StageMap, runstage.StagePlace, runstage.StageRoute}
	if len(m.Stages) != len(wantStages) {
		t.Fatalf("stages = %+v, want %v", m.Stages, wantStages)
	}
	for i, st := range m.Stages {
		if st.Stage != wantStages[i] {
			t.Fatalf("stage %d = %s, want %s", i, st.Stage, wantStages[i])
		}
	}
	for _, st := range m.Stages[:3] {
		if st.Wall <= 0 {
			t.Errorf("completed stage %s lost its wall time (%v)", st.Stage, st.Wall)
		}
	}
	route := m.Stages[3]
	if route.Err == "" {
		t.Error("failing stage recorded no error")
	}
	// The route stage stalled on the fault's delay until the 2s budget
	// expired; its measured wall time must reflect that partial run.
	if route.Wall < time.Second {
		t.Errorf("route wall = %v, want >= ~2s (the budget it burned)", route.Wall)
	}
	// The flow.iteration span carries the iteration error too.
	var itSpan *obs.SpanRecord
	for i := range m.Events.Spans {
		if m.Events.Spans[i].Name == "flow.iteration" {
			itSpan = &m.Events.Spans[i]
		}
	}
	if itSpan == nil {
		t.Fatal("no flow.iteration span")
	}
	if itSpan.Err == "" {
		t.Error("flow.iteration span has no error")
	}
	if !errors.Is(se, context.DeadlineExceeded) {
		t.Errorf("stage error does not unwrap to DeadlineExceeded: %v", se)
	}
}

// TestRunMergesIterationEvents checks that Run folds every completed
// iteration's events into the run-level recorder in ladder order.
func TestRunMergesIterationEvents(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.KSchedule = []float64{0, 0.001}
	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	res, err := Run(ctx, pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	counts := snap.SpanCounts()
	if got := counts["flow.iteration"]; got != int64(len(res.Iterations)) {
		t.Errorf("flow.iteration spans = %d, want %d", got, len(res.Iterations))
	}
	if got := counts["stage.map"]; got != int64(len(res.Iterations)) {
		t.Errorf("stage.map spans = %d, want %d", got, len(res.Iterations))
	}
	// Iteration spans must appear in ladder order: the K tags of the
	// flow.iteration spans ascend.
	var ks []float64
	for _, sp := range snap.Spans {
		if sp.Name == "flow.iteration" {
			ks = append(ks, sp.K)
		}
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			t.Errorf("iteration spans out of ladder order: %v", ks)
		}
	}
}
