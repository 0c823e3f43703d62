package serve

import (
	"sort"
	"testing"
	"time"
)

// benchJobs is the per-phase job count of the load harness — enough
// for stable p50, small enough for the CI smoke run.
const benchJobs = 12

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// loadPhase is one phase's latency profile in milliseconds.
type loadPhase struct {
	P50Ms, P99Ms, JobsSec float64
}

func runPhase(b *testing.B, s *Server, specs []JobSpec, wantCache string) loadPhase {
	b.Helper()
	lats := make([]time.Duration, 0, len(specs))
	start := time.Now()
	for _, spec := range specs {
		t0 := time.Now()
		job, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		select {
		case <-job.Done():
		case <-time.After(120 * time.Second):
			b.Fatalf("job %s stuck", job.ID)
		}
		res, jerr := job.Result()
		if res == nil {
			b.Fatalf("job %s failed: %+v", job.ID, jerr)
		}
		if wantCache != "" && res.Cache != wantCache {
			b.Fatalf("job %s served from %q, want %q", job.ID, res.Cache, wantCache)
		}
		lats = append(lats, time.Since(t0))
	}
	total := time.Since(start)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return loadPhase{
		P50Ms:   float64(percentile(lats, 0.50)) / float64(time.Millisecond),
		P99Ms:   float64(percentile(lats, 0.99)) / float64(time.Millisecond),
		JobsSec: float64(len(specs)) / total.Seconds(),
	}
}

// BenchmarkServe is the daemon load harness: three phases of benchJobs
// jobs each against one two-worker server on SPLA at scale 0.05 — cold
// (every job a distinct circuit configuration, full compute), prepared
// (same circuit, new K each time: the cached mapping prefix is
// reused), and warm (exact repeats served from the result cache). It
// reports p50/p99 latency and jobs/sec per phase and fails unless warm
// p50 is at least 3x faster than cold p50.
func BenchmarkServe(b *testing.B) {
	var coldP, prepP, warmP loadPhase
	for i := 0; i < b.N; i++ {
		s := New(Config{Workers: 2, QueueCap: benchJobs * 3})

		// Cold: a distinct placement seed per job gives a distinct
		// PrepKey, so every job pays the full pipeline.
		cold := make([]JobSpec, benchJobs)
		for j := range cold {
			cold[j] = JobSpec{Bench: "spla", Scale: 0.05, K: 0.3, Seed: int64(j + 1)}
		}
		coldP = runPhase(b, s, cold, "")

		// Prepared: one circuit (seed 1 is already cached from the cold
		// phase), a fresh K per job — only the K-dependent suffix runs.
		prepared := make([]JobSpec, benchJobs)
		for j := range prepared {
			prepared[j] = JobSpec{Bench: "spla", Scale: 0.05, K: 0.01 * float64(j+1), Seed: 1}
		}
		prepP = runPhase(b, s, prepared, "prepared")

		// Warm: exact repeats of the prepared specs — result-cache hits,
		// no compute.
		warmP = runPhase(b, s, prepared, "result")

		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}

	for _, ph := range []struct {
		name string
		p    loadPhase
	}{{"cold", coldP}, {"prep", prepP}, {"warm", warmP}} {
		b.ReportMetric(ph.p.P50Ms, ph.name+"-p50-ms")
		b.ReportMetric(ph.p.P99Ms, ph.name+"-p99-ms")
		b.ReportMetric(ph.p.JobsSec, ph.name+"-jobs/s")
	}
	warmSpeedup := coldP.P50Ms / warmP.P50Ms
	b.ReportMetric(warmSpeedup, "warm-speedup")
	if warmSpeedup < 3 {
		b.Fatalf("warm p50 %.3fms is not >=3x faster than cold p50 %.3fms", warmP.P50Ms, coldP.P50Ms)
	}
}
