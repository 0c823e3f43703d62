package paper

import (
	"strings"
	"testing"

	"casyn/internal/experiments"
)

// TestUnroutedRowFlagged pins the Routed column: a variant whose die
// never routed is printed with "no", not passed off as a minimal
// routable die.
func TestUnroutedRowFlagged(t *testing.T) {
	var out strings.Builder
	writeSTARows(&out, []experiments.STARow{
		{Label: "K=0", CriticalPI: "in1", CriticalPO: "out2", Arrival: 11.5, SameK0PathArrival: 11.5, ChipArea: 150000, NumRows: 60, Routable: true},
		{Label: "K=0.001", CriticalPI: "in3", CriticalPO: "out4", Arrival: 12.25, SameK0PathArrival: 12, ChipArea: 160000, NumRows: 70},
	})
	want := "K         Critical Path Arrival Time         Same path as K=0       Chip Area / rows    Routed\n" +
		"K=0       in1(in) out2(out)   11.50 ns            11.50 ns       150000 µm² / 60  yes\n" +
		"K=0.001   in3(in) out4(out)   12.25 ns            12.00 ns       160000 µm² / 70  no\n"
	if out.String() != want {
		t.Errorf("rows =\n%s\nwant\n%s", out.String(), want)
	}
}
