package main

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// config is one benchmark run of one workload.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the untraced run's metrics: what a user of the flow
// sees. gates_per_s is the base gates of one operation of each bucket
// over the sum of the buckets' median latencies; wirelength_um adds up
// the first output of each bucket.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "gates_per_s", unit: "1/s"},
	{name: "wirelength_um", unit: "um"},
}

// account checks outputs as they arrive: every output of a key must
// reproduce the key's first output.
type account struct {
	attempted, failed int
	fps               map[string]string
	first             map[string]result
	mismatches        []string
}

func newAccount() *account {
	return &account{fps: map[string]string{}, first: map[string]result{}}
}

func (a *account) record(key string, r result, err error) {
	if err != nil {
		a.verdict(key, err)
		return
	}
	fp := r.fingerprint()
	prev, seen := a.fps[key]
	if !seen {
		a.fps[key], a.first[key] = fp, r
	}
	if seen && prev != fp {
		err = errors.New("output differs from its first run")
	}
	a.verdict(key, err)
}

// verdict counts one attempted operation or check; err says why it
// failed.
func (a *account) verdict(what string, err error) {
	a.attempted++
	if err != nil {
		a.failed++
		a.mismatches = append(a.mismatches, what+": "+err.Error())
	}
}

// bucket gathers the measured operations that share a median.
type bucket struct {
	first  result // the bucket's first output
	walls  []float64
	traces []raw
}

// outcome is a finished run: the report plus what the environment
// header states about it.
type outcome struct {
	report  report
	samples map[string]int // timing samples per bucket, plus set-up
	errors  []string
}

// measure sets the workload up, runs its closed loop for cfg.seconds
// and checks the outputs.
func measure(ctx context.Context, cfg config) (outcome, error) {
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1 // a traced run reports no setup_s
	}
	var s *session
	var setups []float64
	for i := 0; i < repeats; i++ {
		s = nil // let the previous set-up's state go before the next
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = cfg.workload.setup(ctx, cfg.seed, cfg.size); err != nil {
			return outcome{}, err
		}
		setups = append(setups, elapsed(start))
	}

	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	acc := newAccount()
	buckets := map[string]*bucket{}
	var order []string
	tot := raw{}
	start := time.Now()
	for i := 0; i < s.minOps || elapsed(start) < cfg.seconds; i++ {
		// Every operation starts from a collected heap, so garbage left
		// by the previous one neither slows it nor raises the peak.
		runtime.GC()
		var untraced float64
		if tr != nil && i < s.pairs {
			// The untraced reference: its output is the one the traced
			// run must reproduce.
			t0 := time.Now()
			key, _, r, err := s.op(ctx, i, nil, false)
			untraced = elapsed(t0)
			acc.record(key, r, err)
			runtime.GC()
		}
		tr.begin()
		t0 := time.Now()
		key, name, r, err := s.op(ctx, i, tr, true)
		wall := elapsed(t0)
		m := tr.end()
		acc.record(key, r, err)
		if err != nil {
			continue
		}
		if m != nil {
			m["op.wall_s"], m["op.calls_s"] = wall, callWall(m)
			if i < s.pairs {
				m["pair.traced_s"], m["pair.untraced_s"] = wall, untraced
			}
			tot.addAll(m, 1)
		}
		b := buckets[name]
		if b == nil {
			b = &bucket{first: r}
			buckets[name] = b
			order = append(order, name)
		}
		b.walls = append(b.walls, wall)
		b.traces = append(b.traces, m)
	}

	tr.begin()
	s.check(ctx, tr, acc)
	checkRaw := tr.end()

	out := outcome{
		report:  report{Correct: acc.failed == 0, Attempted: acc.attempted, Failed: acc.failed, Metrics: map[string]metric{}},
		samples: map[string]int{"setup": len(setups)},
		errors:  acc.mismatches,
	}
	// The quality of a round: the first output of each bucket.
	var gates, median float64
	first := raw{}
	for _, name := range order {
		b := buckets[name]
		out.samples[name] = len(b.walls)
		gates += float64(b.first.gates)
		median += quantile(b.walls, 0.5)
		first["route.violations"] += float64(b.first.violations)
		first["route.wirelength_um"] += b.first.wirelength
		first["mapper.cell_area_um2"] += b.first.area
		first["sta.critical_path_ns"] += b.first.criticalNs
	}

	if cfg.trace {
		round := raw{"proc.peak_rss_mb": peakRSSMB()}
		round.addAll(first, 1)
		round.addAll(checkRaw, 1)
		tot.addAll(checkRaw, 1)
		for _, name := range order {
			b := buckets[name]
			for _, m := range b.traces {
				round.addAll(m, 1/float64(len(b.traces)))
			}
		}
		for _, d := range layerMetrics {
			out.report.Metrics[d.name] = metric{d.value(round, tot), d.unit}
		}
		return out, nil
	}

	values := map[string]float64{
		"setup_s":       quantile(setups, 0.5),
		"wirelength_um": first["route.wirelength_um"],
	}
	if median > 0 {
		values["gates_per_s"] = gates / median
	}
	for _, d := range endToEnd {
		out.report.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return out, nil
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (the median for q = 0.5); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// elapsed is the wall time since t in seconds.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
