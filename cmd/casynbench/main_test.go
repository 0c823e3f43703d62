package main

import (
	"context"
	"fmt"
	"io"
	"testing"

	"casyn/internal/netlist"
)

// tinySize runs every workload in a second or two.
var tinySize = sizes{scale: 0.05, routeGates: 5000, minEdits: 3}

// TestWorkloadsEmitDeclaredMetrics runs every workload at tiny size,
// untraced and traced, and checks that the outputs are correct and
// that exactly the metrics BENCHMARK.json declares are emitted, each
// with its declared unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	var sp spec
	if err := readJSON("../../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				o, err := measure(context.Background(), config{workload: w, seed: 1, trace: traced, size: tinySize})
				if err != nil {
					t.Fatal(err)
				}
				r := o.report
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("report %+v, errors %v", r, o.errors)
				}
				want := declared[traced]
				if len(r.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := r.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v (emitted %v), want unit %q", name, m, ok, unit)
					}
				}
				if !traced {
					for name, m := range r.Metrics {
						// Tiny designs may route without violations.
						if m.Value <= 0 && name != "violations" {
							t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestTamperedOutputFails feeds measure a session whose third pass of
// a kind returns a different netlist: the run must report the failure.
func TestTamperedOutputFails(t *testing.T) {
	outputs := []result{{gates: 4, netlist: netlist.New(), violations: 1, wirelength: 2}}
	outputs = append(outputs, outputs[0], outputs[0])
	outputs[2].violations++ // the tampered fingerprint
	w := workload{name: "stub", setup: func(context.Context, int64, sizes) (*session, error) {
		return &session{
			minOps: len(outputs),
			op: func(_ context.Context, i int, _ *tracer, _ bool) (string, string, result, error) {
				return "k", "k", outputs[i%len(outputs)], nil
			},
			check: func(context.Context, *tracer, *account) {},
		}, nil
	}}
	o, err := measure(context.Background(), config{workload: w, size: tinySize})
	if err != nil {
		t.Fatal(err)
	}
	if o.report.Correct || o.report.Failed != 1 || o.report.Attempted != 3 {
		t.Fatalf("tampered run reported %+v", o.report)
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || quantile(xs, 0.5) != 5.5 {
		t.Fatalf("quartiles %g, %g, median %g", q1, q3, quantile(xs, 0.5))
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 100, 101, 99, 100}, "within"},
		{[]float64{120, 121, 119, 120, 120}, "worse"},
		{[]float64{80, 81, 79, 80, 80}, "better"},
		{[]float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		if got := verdict(a, c.b, 1, 0.1); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-workload", "nope"},
		{"-compare", "one.json"},
		{"stray"},
	} {
		if code := cli(context.Background(), args, io.Discard, io.Discard); code != 2 {
			t.Errorf("cli(%q) = %d, want 2", args, code)
		}
	}
}
