package route_test

import (
	"context"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/route"
)

// fingerprint hashes every deterministic bit of a routing result,
// floats by their exact bits (route.Fingerprint).
var fingerprint = route.Fingerprint

// TestRipupWorkersByteIdentical is the tentpole acceptance check at the
// route level: on a congested paper-scale-generator circuit, the
// parallel region-partitioned rip-up must produce a byte-identical
// result for every worker count.
func TestRipupWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("congested determinism run is ~seconds")
	}
	t.Parallel()
	nl, pl, layout, err := bench.RouteSpecAt(30_000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *route.Result {
		t.Helper()
		opts := experiments.RouteOpts()
		opts.RipupIterations = 5
		opts.Workers = workers
		res, err := route.RouteNetlist(context.Background(), nl, pl, layout, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	if ref.RipupRounds == 0 {
		t.Fatal("generator produced no congestion; the determinism check never exercised rip-up")
	}
	want := fingerprint(ref)
	t.Logf("workers=1: rounds=%d overflow=%d fingerprint=%s…", ref.RipupRounds, ref.Overflow, want[:16])
	for _, w := range []int{2, 8} {
		res := run(w)
		if got := fingerprint(res); got != want {
			t.Errorf("workers=%d fingerprint %s != workers=1 %s (overflow %d vs %d, rounds %d vs %d)",
				w, got[:16], want[:16], res.Overflow, ref.Overflow, res.RipupRounds, ref.RipupRounds)
		}
	}
}
