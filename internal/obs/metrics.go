package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic (or at least additive) counter handle. The
// zero value is ready to use; a nil *Counter is a valid no-op handle.
// Increments are atomic, so one handle may be shared by all workers of
// a fan-out — the total is deterministic for every worker count.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current total (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins instantaneous value handle (queue depth,
// running jobs, cache occupancy). The zero value is ready to use; a
// nil *Gauge is a valid no-op handle. Set/Add are atomic, so one
// handle may be shared across goroutines.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram handle: bounds are bucket
// upper limits (values land in the first bucket whose bound is >= v;
// larger values land in the implicit +Inf overflow bucket). A nil
// *Histogram is a valid no-op handle. Observations are mutex-guarded,
// so a handle may be shared across goroutines; bucket counts, the
// observation count, and min/max are deterministic for every worker
// interleaving (Sum is a float accumulation and is excluded from
// deterministic fingerprints).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observe(v)
}

// ObserveAll records each value of vs, in order, under one lock: the
// same state as calling Observe on each.
func (h *Histogram) ObserveAll(vs []float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, v := range vs {
		h.observe(v)
	}
}

// observe records one value; the caller holds h.mu.
func (h *Histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// snapshot copies the histogram state (caller need not hold the lock).
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
	if h.count > 0 {
		// The ±Inf seed sentinels must never escape the histogram: a
		// registered-but-unobserved histogram snapshots Min=Max=0, so
		// JSON marshaling (which rejects ±Inf) stays safe. Non-finite
		// *observed* values are handled at the WriteJSONL boundary.
		s.Min, s.Max = h.min, h.max
	}
	return s
}

// merge adds another snapshot's observations into h. Bucket-by-bucket
// when the bounds agree (the normal case: every instrumentation site
// registers fixed bounds); otherwise only the scalar aggregates are
// folded in, with the foreign observations landing in the overflow
// bucket so no count is silently dropped — that fidelity loss is
// reported via the returned mismatch flag, which Recorder.Merge
// surfaces on the "histogram.merge_mismatch" counter.
func (h *Histogram) merge(s HistogramSnapshot) (mismatch bool) {
	if h == nil || s.Count == 0 {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(s.Counts) == len(h.counts) {
		for i, c := range s.Counts {
			h.counts[i] += c
		}
	} else {
		h.counts[len(h.counts)-1] += s.Count
		mismatch = true
	}
	h.count += s.Count
	h.sum += s.Sum
	if s.Min < h.min {
		h.min = s.Min
	}
	if s.Max > h.max {
		h.max = s.Max
	}
	return mismatch
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper limits; Counts has one extra entry
	// for the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}
