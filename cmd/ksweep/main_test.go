package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casyn/internal/obs"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSweepWithMetrics runs a scaled-down sweep with -metrics and
// checks the table lands on stdout and the flushed JSONL carries the
// shared mapping prefix's span alongside the per-K iterations.
func TestSweepWithMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	code, out, errb := runCLI(t, "-bench", "spla", "-scale", "0.05", "-metrics", path)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitOK, errb)
	}
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "sweep wall-clock") {
		t.Errorf("table missing from stdout: %q", out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("metrics file is not valid JSONL: %v", err)
	}
	counts := snap.SpanCounts()
	// The 14 ladder rungs share one prefix. The scaled run also sizes
	// its die with one single-K iteration (minAreaCellArea), which
	// builds the second; each nests its map.partition in map.prepare.
	if counts["stage.map_prepare"] != 2 || counts["map.prepare"] != 2 || counts["map.partition"] != 2 {
		t.Errorf("want one mapping prefix for the ladder and one for die sizing: %v", counts)
	}
	// Every iteration, ladder rung or not, maps through a prefix.
	if counts["map.cover_only"] != 15 || counts["map.cover"] != 0 {
		t.Errorf("per-K repartitioning survived the shared prefix: %v", counts)
	}
	if counts["flow.iteration"] != 15 {
		t.Errorf("flow.iteration = %d, want 14 ladder rungs + 1 die-sizing run", counts["flow.iteration"])
	}
}

// TestFlushFailureKeepsPipelineExitCode is the cliobs satellite's
// regression: an unwritable -metrics path must be reported on stderr,
// the sweep's own report must still print, and — since the pipeline
// itself succeeded — the flush failure alone decides the nonzero exit.
func TestFlushFailureKeepsPipelineExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "metrics.jsonl")
	code, out, errb := runCLI(t, "-bench", "spla", "-scale", "0.05", "-metrics", bad)
	if code != exitErr {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitErr, errb)
	}
	if !strings.Contains(errb, "no-such-dir") {
		t.Errorf("flush error not reported on stderr: %q", errb)
	}
	if !strings.Contains(out, "Table 2") {
		t.Errorf("flush failure clobbered the sweep report: %q", out)
	}
}

// TestUsageErrors pins the usage exit paths.
func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad bench": {"-bench", "nonesuch"},
		"bad flag":  {"-definitely-not-a-flag"},
	} {
		t.Run(name, func(t *testing.T) {
			if code, _, _ := runCLI(t, args...); code != exitUsage {
				t.Errorf("exit = %d, want %d", code, exitUsage)
			}
		})
	}
}
