package flow

import (
	"context"
	"strings"
	"time"

	"casyn/internal/obs"
	"casyn/internal/route"
	"casyn/internal/runstage"
)

// Metrics is the observability snapshot of one iteration, populated
// whenever the context given to a driver carries an *obs.Recorder. It
// is built from the iteration's own child recorder, so concurrent
// iterations of a parallel sweep never interleave, and a speculative
// iteration that is discarded leaves no trace. The driver has already
// merged Events into the context's recorder; Metrics is the
// iteration's own view of them.
//
// The deterministic fields — counters, histogram bucket counts, span
// multiset, hot spots — are byte-identical for every Config.Workers
// value (see Fingerprint); only durations vary run to run.
type Metrics struct {
	// Stages lists the pipeline stages that actually ran, in execution
	// order, with the wall/CPU time measured inside runstage.Run — the
	// single measurement point, surfaced rather than re-measured. A
	// failed or budget-blown iteration still carries the stages that
	// completed plus the failing stage with its partial elapsed time
	// and error.
	Stages []StageTiming
	// HotSpots are the worst over-capacity routing edges of the
	// iteration's congestion map (empty when routing never ran or
	// nothing overflowed).
	HotSpots []route.HotSpot
	// Events is the full event stream: every span, counter, and
	// histogram the pipeline recorded during this iteration, including
	// the congestion and net-HPWL histograms from the router and the
	// match/DP counters from the coverer.
	Events obs.Snapshot
}

// StageTiming is one executed stage's measured cost.
type StageTiming struct {
	Stage runstage.Stage
	Wall  time.Duration
	CPU   time.Duration
	// Err is the failure the stage ended with ("" on success).
	Err string
}

// MergeMetrics does nothing: every driver already merges its
// iterations' events into ctx's recorder. It stays only because
// cmd/casynbench, which changes only with a benchmark revision, calls
// it by name.
func MergeMetrics(context.Context, *Metrics) {}

// buildMetrics assembles the Metrics snapshot from an iteration's
// child recorder. Stage timings come from the "stage.*" spans recorded
// inside runstage.Run — end order is execution order, because the
// stages of one iteration run sequentially.
func buildMetrics(rec *obs.Recorder, hotspots []route.HotSpot) *Metrics {
	if rec == nil {
		return nil
	}
	snap := rec.Snapshot()
	m := &Metrics{Events: snap, HotSpots: hotspots}
	for _, sp := range snap.Spans {
		if name, ok := strings.CutPrefix(sp.Name, "stage."); ok {
			m.Stages = append(m.Stages, StageTiming{
				Stage: runstage.Stage(name),
				Wall:  sp.Wall,
				CPU:   sp.CPU,
				Err:   sp.Err,
			})
		}
	}
	return m
}
