package golden

// The closed-loop golden: RunAdaptive on the scaled congested
// configurations the flow package's convergence regression runs
// (seeded placement, reduced routing capacity), one JSON per config in
// testdata/adaptive/. Each routed iteration is pinned by its netlist
// hash, routing quality and the controller state that produced it, so
// a change to how a steered step covers, places or routes moves a
// golden. Regenerate with
//
//	go test ./internal/golden -update

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/place"
	"casyn/internal/route"
)

// adaptiveConfig is one congested operating point: a benchmark class
// at scale 0.05 on a die sized for the given tightness, routed at the
// given capacity scale.
type adaptiveConfig struct {
	class     bench.Class
	tightness float64
	capScale  float64
}

func (c adaptiveConfig) name() string {
	return fmt.Sprintf("%s_t%g_cs%g", c.class, c.tightness, c.capScale)
}

var adaptiveConfigs = []adaptiveConfig{
	{bench.SPLA, 0.45, 1.3},
	{bench.SPLA, 0.55, 1.3},
	{bench.PDC, 0.55, 1.1},
}

// AdaptiveGolden is the on-disk form of one closed-loop run.
type AdaptiveGolden struct {
	Config     string                    `json:"config"`
	BestIndex  int                       `json:"best_index"`
	Converged  bool                      `json:"converged"`
	Iterations []AdaptiveIterationGolden `json:"iterations"`
}

// AdaptiveIterationGolden pins one routed iteration. Floats are
// pre-formatted so the encoding is byte-stable.
type AdaptiveIterationGolden struct {
	NetlistSHA256     string `json:"netlist_sha256"`
	FailedConnections int    `json:"failed_connections"`
	Overflow          int    `json:"overflow"`
	WireLength        string `json:"wire_length_um"`
	ChangedCells      int    `json:"changed_cells"`
	MaxMult           string `json:"max_mult"`
}

// runAdaptive runs the closed loop on one config at the convergence
// regression's operating point and condenses the result.
func runAdaptive(ctx context.Context, c adaptiveConfig) (*AdaptiveGolden, error) {
	p, err := bench.Generate(c.class.ScaledSpec(0.05))
	if err != nil {
		return nil, err
	}
	d, err := bench.BuildSubject(p, bench.Direct)
	if err != nil {
		return nil, err
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/c.tightness, 1.0, library.RowHeight)
	if err != nil {
		return nil, err
	}
	cfg := flow.Config{
		Layout:    layout,
		Lib:       library.Default(),
		PlaceOpts: place.Options{Seed: 1},
		RouteOpts: route.Options{CapacityScale: c.capScale},
		Workers:   4,
	}
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	res, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{})
	if err != nil {
		return nil, err
	}
	g := &AdaptiveGolden{Config: c.name(), BestIndex: res.BestIndex, Converged: res.Converged}
	for i := range res.Iterations {
		ai := &res.Iterations[i]
		fp, err := FromIteration(c.name(), &ai.Iteration)
		if err != nil {
			return nil, err
		}
		g.Iterations = append(g.Iterations, AdaptiveIterationGolden{
			NetlistSHA256:     fp.NetlistSHA256,
			FailedConnections: fp.FailedConnections,
			Overflow:          fp.Overflow,
			WireLength:        fp.WireLength,
			ChangedCells:      ai.ChangedCells,
			MaxMult:           fmt.Sprintf("%g", ai.MaxMult),
		})
	}
	return g, nil
}

// TestAdaptiveGolden regression-checks every closed-loop config against
// its committed golden. At least one config must take a steered step,
// or the suite would pin only uniform covers.
func TestAdaptiveGolden(t *testing.T) {
	steered := 0
	for _, c := range adaptiveConfigs {
		g, err := runAdaptive(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		if len(g.Iterations) > 1 {
			steered++
		}
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got := append(b, '\n')
		gp := filepath.Join("testdata", "adaptive", c.name()+".json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(gp), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(gp, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(gp)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/golden -update` to generate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("closed loop drifted from %s:\n--- got\n%s--- want\n%s", gp, got, want)
		}
	}
	if steered == 0 {
		t.Error("no config took a steered step; the golden pins only uniform covers")
	}
}
