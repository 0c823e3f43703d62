// Package golden builds the iteration fingerprints of the golden-file
// regression suite: for one circuit and one K it runs the standard
// flow configuration (the diffharness/casyn operating point — seed 1,
// 58% utilization, calibrated router) and condenses the result into a
// Fingerprint holding only deterministic fields: the netlist SHA-256,
// fixed-precision scalar metrics, the congestion histogram's bucket
// counts, and the span/counter totals of the observability layer.
//
// The suite's files live in testdata/golden/, one JSON per
// (circuit, K); regenerate them with
//
//	go test ./internal/golden -update
//
// after any intentional result change. Because the fingerprint is
// computed twice per case — once with metrics enabled and once without
// — the suite also proves that enabling observability changes no
// synthesis result.
package golden

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/obs"
	"casyn/internal/place"
	"casyn/internal/route"
)

// Fingerprint is the deterministic condensation of one flow iteration.
// Float scalars are stored pre-formatted at fixed precision so the JSON
// encoding is byte-stable.
type Fingerprint struct {
	Circuit string  `json:"circuit"`
	K       float64 `json:"k"`
	// NetlistSHA256 hashes the mapped netlist's structural Verilog —
	// the functional identity of the result.
	NetlistSHA256     string `json:"netlist_sha256"`
	NumCells          int    `json:"num_cells"`
	CellArea          string `json:"cell_area_um2"`
	Utilization       string `json:"utilization"`
	WireLength        string `json:"wire_length_um"`
	FailedConnections int    `json:"failed_connections"`
	Violations        int    `json:"violations"`
	Routable          bool   `json:"routable"`
	// CongestionBounds/Counts are the route.congestion histogram's
	// bucket layout and deterministic bucket counts (the float sum is
	// deliberately excluded).
	CongestionBounds []float64 `json:"congestion_bounds,omitempty"`
	CongestionCounts []int64   `json:"congestion_counts,omitempty"`
	// SpanCounts and Counters are the iteration's event totals: how
	// many spans completed per name, and every pipeline counter.
	SpanCounts map[string]int64 `json:"span_counts,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// Config pins the flow operating point of the suite — the same
// calibrated configuration casyn and the diffharness use.
func Config(layout place.Layout) flow.Config {
	return flow.Config{
		Layout:         layout,
		PlaceOpts:      place.Options{Seed: 1, RefinePasses: 8},
		RouteOpts:      route.Options{GCellSize: 26.6, RipupIterations: 6, CapacityScale: 1.98},
		FreshPlacement: true,
	}
}

// Compute synthesizes the PLA at plaPath for one K and returns its
// fingerprint. withMetrics attaches an obs.Recorder for the iteration
// (filling the histogram/span/counter fields); without it those fields
// stay empty, which is how the suite proves observability is inert.
func Compute(ctx context.Context, circuit, plaPath string, k float64, withMetrics bool) (*Fingerprint, error) {
	f, err := os.Open(plaPath)
	if err != nil {
		return nil, err
	}
	p, err := logic.ReadPLA(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", circuit, err)
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", circuit, err)
	}
	area := float64(d.BaseGateCount()) * 4.6 / 0.58
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", circuit, err)
	}
	cfg := Config(layout)
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		return nil, fmt.Errorf("golden: %s: %w", circuit, err)
	}
	if withMetrics {
		ctx = obs.WithRecorder(ctx, obs.New())
	}
	it, err := flow.RunOnce(ctx, pc, k, cfg)
	if err != nil {
		return nil, fmt.Errorf("golden: %s K=%g: %w", circuit, k, err)
	}
	return FromIteration(circuit, &it)
}

// FromIteration condenses a completed iteration into its fingerprint.
func FromIteration(circuit string, it *flow.Iteration) (*Fingerprint, error) {
	var sb strings.Builder
	if err := it.Netlist.WriteVerilog(&sb, "dut"); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(sb.String()))
	fp := &Fingerprint{
		Circuit:           circuit,
		K:                 it.K,
		NetlistSHA256:     hex.EncodeToString(sum[:]),
		NumCells:          it.NumCells,
		CellArea:          fmt.Sprintf("%.6f", it.CellArea),
		Utilization:       fmt.Sprintf("%.6f", it.Utilization),
		WireLength:        fmt.Sprintf("%.6f", it.WireLength),
		FailedConnections: it.FailedConnections,
		Violations:        it.Violations,
		Routable:          it.Routable,
	}
	if m := it.Metrics; m != nil {
		if h, ok := m.Events.Histograms["route.congestion"]; ok {
			fp.CongestionBounds = h.Bounds
			fp.CongestionCounts = h.Counts
		}
		fp.SpanCounts = m.Events.SpanCounts()
		fp.Counters = m.Events.Counters
	}
	return fp, nil
}

// Encode renders the fingerprint as stable, indented JSON with a
// trailing newline (the on-disk golden format). encoding/json sorts
// map keys, so the bytes are reproducible.
func (fp *Fingerprint) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(fp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Load reads a golden file back.
func Load(path string) (*Fingerprint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fp := &Fingerprint{}
	if err := json.Unmarshal(b, fp); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	return fp, nil
}
