package experiments

import (
	"context"
	"strings"
	"testing"

	"casyn/internal/bench"
)

// TestKWayVsBisect pins the PR's acceptance criterion: on at least
// two bench circuits, direct k-way moves with replication strictly
// reduce both the cut-net count and the Steiner cost relative to the
// recursive-bisection seed, with the replicated subject proven
// equivalent (KWayVsBisect runs the flow with Verify on, so an
// inequivalent replication fails the call outright).
func TestKWayVsBisect(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow per circuit; skipped in -short")
	}
	for _, tc := range []struct {
		class bench.Class
		dies  int
	}{
		{bench.SPLA, 2},
		{bench.PDC, 2},
	} {
		row, err := KWayVsBisect(context.Background(), tc.class, 0.05, tc.dies, 1)
		if err != nil {
			t.Fatalf("%v: %v", tc.class, err)
		}
		t.Logf("%v: %+v", tc.class, *row)
		if row.CutNetsKWay >= row.CutNetsBisect {
			t.Errorf("%v: cut nets %d not strictly below the bisection seed %d",
				tc.class, row.CutNetsKWay, row.CutNetsBisect)
		}
		if row.SteinerKWay >= row.SteinerBisect {
			t.Errorf("%v: Steiner cost %.1f not strictly below the bisection seed %.1f",
				tc.class, row.SteinerKWay, row.SteinerBisect)
		}
		if row.Replicas > 0 && !row.Verified {
			t.Errorf("%v: %d replicas but no equivalence proof recorded", tc.class, row.Replicas)
		}
		if !row.Routed {
			t.Errorf("%v: end-to-end row not routed", tc.class)
		}
	}
}

// TestKWayPressure checks the synthetic scaling rows — the 100k- and
// 250k-gate points at seed 1 and 20k gates over seeds 1..12: the
// partitioner must complete (chained replication never aborts the run)
// and never score worse than its seed.
func TestKWayPressure(t *testing.T) {
	type point struct {
		gates int
		seed  int64
	}
	points := []point{{100_000, 1}, {250_000, 1}}
	for seed := int64(1); seed <= 12; seed++ {
		points = append(points, point{20_000, seed})
	}
	for _, p := range points {
		row, err := KWayPressure(p.gates, 64, 4, p.seed)
		if err != nil {
			t.Fatalf("%d gates seed %d: %v", p.gates, p.seed, err)
		}
		if row.CutNetsKWay > row.CutNetsBisect || row.SteinerKWay > row.SteinerBisect {
			t.Errorf("%d gates seed %d: k-way scored worse than its seed: %+v", p.gates, p.seed, *row)
		}
		if !strings.HasPrefix(row.Circuit, "synthetic-") {
			t.Errorf("%d gates seed %d: circuit label %q", p.gates, p.seed, row.Circuit)
		}
	}
}
