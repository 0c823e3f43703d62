package golden

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current results")

// circuits returns every example circuit, sorted for stable subtest
// ordering.
func circuits(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "circuits", "*.pla"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example circuits found")
	}
	sort.Strings(paths)
	return paths
}

func goldenPath(circuit string, k float64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_k%g.json", circuit, k))
}

// TestGolden regression-checks every circuit × K against its committed
// fingerprint, and — in the same pass — proves that enabling metrics
// changes no synthesis result: the fingerprint is computed with and
// without a recorder and the two must agree on every result field.
func TestGolden(t *testing.T) {
	for _, path := range circuits(t) {
		circuit := strings.TrimSuffix(filepath.Base(path), ".pla")
		for _, k := range []float64{0, 1} {
			t.Run(fmt.Sprintf("%s/K=%g", circuit, k), func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				withObs, err := Compute(ctx, circuit, path, k, true)
				if err != nil {
					t.Fatal(err)
				}
				plain, err := Compute(ctx, circuit, path, k, false)
				if err != nil {
					t.Fatal(err)
				}

				// Observability must be inert: every result field equal,
				// starting with the netlist's functional identity.
				if withObs.NetlistSHA256 != plain.NetlistSHA256 {
					t.Errorf("enabling metrics changed the netlist: %s vs %s",
						withObs.NetlistSHA256, plain.NetlistSHA256)
				}
				if withObs.NumCells != plain.NumCells ||
					withObs.CellArea != plain.CellArea ||
					withObs.Utilization != plain.Utilization ||
					withObs.WireLength != plain.WireLength ||
					withObs.FailedConnections != plain.FailedConnections ||
					withObs.Overflow != plain.Overflow ||
					withObs.Routable != plain.Routable {
					t.Errorf("enabling metrics perturbed results:\nwith:    %+v\nwithout: %+v",
						withObs, plain)
				}
				if len(withObs.SpanCounts) == 0 || len(withObs.Counters) == 0 {
					t.Error("metrics-enabled fingerprint carries no events")
				}
				if len(withObs.CongestionCounts) == 0 {
					t.Error("metrics-enabled fingerprint has no congestion histogram")
				}

				got, err := withObs.Encode()
				if err != nil {
					t.Fatal(err)
				}
				gp := goldenPath(circuit, k)
				if *update {
					if err := os.MkdirAll(filepath.Dir(gp), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(gp, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(gp)
				if err != nil {
					t.Fatalf("%v (run `go test ./internal/golden -update` to generate)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("fingerprint drifted from %s:\n--- got\n%s--- want\n%s", gp, got, want)
				}
			})
		}
	}
}

// TestGoldenFilesComplete fails when a golden file exists for a
// circuit that disappeared, or is missing for one that exists — the
// suite and the examples directory move together.
func TestGoldenFilesComplete(t *testing.T) {
	if *update {
		t.Skip("updating")
	}
	want := map[string]bool{}
	for _, path := range circuits(t) {
		circuit := strings.TrimSuffix(filepath.Base(path), ".pla")
		for _, k := range []float64{0, 1} {
			want[filepath.Base(goldenPath(circuit, k))] = true
		}
	}
	haveFiles, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, f := range haveFiles {
		have[filepath.Base(f)] = true
	}
	for f := range want {
		if !have[f] {
			t.Errorf("missing golden file %s (run `go test ./internal/golden -update`)", f)
		}
	}
	for f := range have {
		if !want[f] {
			t.Errorf("stale golden file %s has no matching circuit", f)
		}
	}
}

// TestLoadRoundTrip checks the on-disk format parses back to the same
// fingerprint it encodes.
func TestLoadRoundTrip(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no golden files yet")
	}
	for _, p := range paths {
		fp, err := Load(p)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := fp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		disk, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, disk) {
			t.Errorf("%s does not round-trip through Load/Encode", p)
		}
	}
}
