package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles are the first and third quartiles by the exclusive method
// of Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// verdict compares change b against parent a for a metric whose worse
// direction is sign (+1 when higher is worse). A spread between
// quartiles wider than the bound leaves the metric unresolved unless
// every run of b beats every run of a.
func verdict(a, b []float64, sign, bound float64) string {
	ma, mb := quantile(a, 0.5), quantile(b, 0.5)
	spread := 0.0
	for _, xs := range [][]float64{a, b} {
		q1, q3 := quartiles(xs)
		if m := quantile(xs, 0.5); m != 0 {
			spread = math.Max(spread, (q3-q1)/math.Abs(m))
		}
	}
	change := 0.0
	if ma != 0 {
		change = sign * (mb - ma) / math.Abs(ma)
	}
	switch {
	case spread > bound && everyBetter(a, b, sign):
		return "better"
	case spread > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	default:
		return "within"
	}
}

// everyBetter reports whether every value of b is better than every
// value of a.
func everyBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	bestA, worstB := math.Inf(1), math.Inf(-1)
	for _, x := range a {
		bestA = math.Min(bestA, sign*x)
	}
	for _, x := range b {
		worstB = math.Max(worstB, sign*x)
	}
	return worstB < bestA
}

// compareLedgers prints one row per end-to-end metric and workload.
func compareLedgers(w io.Writer, specPath, aPath, bPath string) error {
	var sp spec
	var a, b ledger
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &sp}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%-10s %-14s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Runs[wl.name], b.Runs[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-10s %-14s %12.6g %25s %12.6g %25s %6.3g  %s\n", wl.name, m.Name,
				quantile(va, 0.5), fmt.Sprintf("[%.6g, %.6g]", a1, a3),
				quantile(vb, 0.5), fmt.Sprintf("[%.6g, %.6g]", b1, b3),
				m.Bound, verdict(va, vb, sign, m.Bound))
		}
	}
	return nil
}
