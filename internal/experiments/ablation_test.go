package experiments

import (
	"context"
	"fmt"
	"testing"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/cover"
	"casyn/internal/flow"
	"casyn/internal/mapper"
	"casyn/internal/partition"
)

// Ablations (DESIGN.md): partitioning scheme, WIRE2 scope, and the
// transitive-fanin cost the paper criticizes, all at a mid-ladder K.

// AblationRow reports one ablation variant.
type AblationRow struct {
	Variant      string
	CellArea     float64
	NumCells     int
	WireEstimate float64
	Violations   int
}

// PartitionAblation maps the class circuit at the given K under each
// partitioning scheme.
func PartitionAblation(ctx context.Context, class bench.Class, scale, k float64) ([]AblationRow, error) {
	d, err := buildSubject(class, scale, bench.Direct)
	if err != nil {
		return nil, err
	}
	layout, err := sweepLayout(ctx, class, scale, d)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, m := range []struct {
		label  string
		method partition.Method
	}{
		{"pdp", partition.PDP},
		{"dagon", partition.Dagon},
		{"cone", partition.Cone},
	} {
		cfg := casyn.FlowConfig(layout, casyn.Options{Partition: m.method})
		pc, err := flow.Prepare(ctx, d, cfg)
		if err != nil {
			return nil, err
		}
		it, err := flow.RunOnce(ctx, pc, k, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", m.label, err)
		}
		rows = append(rows, AblationRow{
			Variant:    m.label,
			CellArea:   it.CellArea,
			NumCells:   it.NumCells,
			Violations: it.FailedConnections,
		})
	}
	return rows, nil
}

// WireCostAblation compares the paper's two-level WIRE scope against
// WIRE1-only and the transitive accumulation of Pedram–Bhat [9].
func WireCostAblation(ctx context.Context, class bench.Class, scale, k float64) ([]AblationRow, error) {
	d, err := buildSubject(class, scale, bench.Direct)
	if err != nil {
		return nil, err
	}
	layout, err := sweepLayout(ctx, class, scale, d)
	if err != nil {
		return nil, err
	}
	pos, poPads, _, _, err := mapper.SubjectPlacement(ctx, d, layout, casyn.FlowConfig(layout, casyn.Options{}).PlaceOpts)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, v := range []struct {
		label string
		opts  cover.Options
	}{
		{"two-level (paper)", cover.Options{K: k}},
		{"wire1-only", cover.Options{K: k, NoWire2: true}},
		{"transitive [9]", cover.Options{K: k, TransitiveWire: true}},
	} {
		res, err := mapper.Map(ctx, d, mapper.Input{Pos: pos, POPads: poPads}, mapper.Options{
			K:              v.opts.K,
			TransitiveWire: v.opts.TransitiveWire,
			NoWire2:        v.opts.NoWire2,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Variant:      v.label,
			CellArea:     res.CellArea,
			NumCells:     res.NumCells,
			WireEstimate: res.WireEstimate,
		})
	}
	return rows, nil
}

func TestPartitionAblationScaled(t *testing.T) {
	t.Parallel()
	rows, err := PartitionAblation(context.Background(), bench.SPLA, testScale, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NumCells == 0 || r.CellArea <= 0 {
			t.Errorf("%s degenerate: %+v", r.Variant, r)
		}
	}
}

func TestWireCostAblationScaled(t *testing.T) {
	t.Parallel()
	rows, err := WireCostAblation(context.Background(), bench.SPLA, testScale, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Scope monotonicity: wire1-only <= two-level <= transitive on the
	// reported estimate.
	if rows[1].WireEstimate > rows[0].WireEstimate+1e-6 {
		t.Errorf("wire1-only estimate %.1f above two-level %.1f",
			rows[1].WireEstimate, rows[0].WireEstimate)
	}
	if rows[0].WireEstimate > rows[2].WireEstimate+1e-6 {
		t.Errorf("two-level estimate %.1f above transitive %.1f",
			rows[0].WireEstimate, rows[2].WireEstimate)
	}
}

// ablationBenchScale matches the repository benchmarks' circuit scale.
const ablationBenchScale = 0.05

// BenchmarkAblationPartition compares the three DAG partitioning
// schemes (DESIGN.md ablation).
func BenchmarkAblationPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := PartitionAblation(context.Background(), bench.SPLA, ablationBenchScale, 0.001)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].CellArea, "pdp-area")
		b.ReportMetric(rows[1].CellArea, "dagon-area")
	}
}

// BenchmarkAblationWireCost compares the paper's two-level WIRE scope
// against WIRE1-only and the transitive-fanin cost of Pedram–Bhat [9].
func BenchmarkAblationWireCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := WireCostAblation(context.Background(), bench.SPLA, ablationBenchScale, 0.005)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].WireEstimate, "two-level")
		b.ReportMetric(rows[2].WireEstimate, "transitive")
	}
}
