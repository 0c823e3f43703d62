package experiments

import (
	"context"
	"strings"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/flow"
)

// TestAdaptiveVsLadderScaled runs the comparison on the calibrated
// congested operating point (SPLA, 55% target utilization, capacity
// 1.3) at test scale: both arms must complete, the closed loop must
// stay within its routed budget, and its accepted iteration must be
// no worse than the ladder's accepted rung.
func TestAdaptiveVsLadderScaled(t *testing.T) {
	t.Parallel()
	res, err := AdaptiveVsLadder(context.Background(), bench.SPLA, 0.05, 0.55, 1.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ladder) != len(flow.DefaultKSchedule()) {
		t.Fatalf("%d ladder rows, want %d", len(res.Ladder), len(flow.DefaultKSchedule()))
	}
	if len(res.Adaptive) == 0 || len(res.Adaptive) > 3 {
		t.Fatalf("%d adaptive iterations, budget is 3", len(res.Adaptive))
	}
	if !res.Converged {
		t.Error("closed loop did not converge")
	}
	lbest, abest := res.Ladder[res.LadderBest], res.Adaptive[res.AdaptiveBest]
	if lbest.Routable && !abest.Routable {
		t.Errorf("ladder routed but adaptive did not (failed=%d)", abest.FailedConnections)
	}
	if !abest.Routable && abest.FailedConnections > lbest.FailedConnections {
		t.Errorf("adaptive best %d failed connections, ladder best %d", abest.FailedConnections, lbest.FailedConnections)
	}
	if saved := res.CoveringIterationsSaved(); saved < 3 {
		t.Errorf("covering-iteration saving %.1fx, want >= 3x", saved)
	}

	var sb strings.Builder
	res.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"open-loop ladder", "closed loop", "covering iterations"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}

// TestAdaptiveVsLadderRejectsBadTightness pins the parameter contract.
func TestAdaptiveVsLadderRejectsBadTightness(t *testing.T) {
	t.Parallel()
	if _, err := AdaptiveVsLadder(context.Background(), bench.SPLA, 0.05, 0, 1.3, 1); err == nil {
		t.Error("tightness 0 did not error")
	}
	if _, err := AdaptiveVsLadder(context.Background(), bench.SPLA, 0.05, 1.5, 1.3, 1); err == nil {
		t.Error("tightness 1.5 did not error")
	}
}
