package route_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/route"
)

// fingerprint hashes every deterministic byte of a routing result: the
// scalar outcome fields, each net's routed length, and the full final
// congestion map (which pins the grid's edge usage, i.e. the actual
// paths, not just their summary statistics).
func fingerprint(res *route.Result) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { word(uint64(int64(v * 1e6)) /* fixed-point, exact for µm sums */) }
	word(uint64(res.Overflow))
	word(uint64(res.OverflowEdges))
	word(uint64(res.FailedConnections))
	word(uint64(res.RipupRounds))
	f64(res.WireLength)
	for _, l := range res.NetLength {
		f64(l)
	}
	for _, row := range res.Grid.CongestionMap() {
		for _, v := range row {
			f64(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

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
