package main

import (
	"path/filepath"
	"strings"
	"testing"

	"casyn/internal/experiments"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestTableRuns checks the happy path at test scale.
func TestTableRuns(t *testing.T) {
	code, out, errb := runCLI(t, "-bench", "spla", "-scale", "0.08")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitOK, errb)
	}
	for _, want := range []string{"Table 3", "K=0", "SIS", "Routed", "table wall-clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q: %q", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "µm² / ") && !strings.HasSuffix(line, "  yes") && !strings.HasSuffix(line, "  no") {
			t.Errorf("row without a Routed field: %q", line)
		}
	}
}

// TestUnroutedRowFlagged pins the Routed column: a variant whose die
// never routed is printed with "no", not passed off as a minimal
// routable die.
func TestUnroutedRowFlagged(t *testing.T) {
	var out strings.Builder
	writeRows(&out, []experiments.STARow{
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

// TestFlushFailureKeepsPipelineExitCode is the cliobs satellite's
// regression: an unwritable -metrics path must be reported on stderr
// without clobbering the successful pipeline's report, and the flush
// failure alone decides the nonzero exit.
func TestFlushFailureKeepsPipelineExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "metrics.jsonl")
	code, out, errb := runCLI(t, "-bench", "spla", "-scale", "0.08", "-metrics", bad)
	if code != exitErr {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitErr, errb)
	}
	if !strings.Contains(errb, "no-such-dir") {
		t.Errorf("flush error not reported on stderr: %q", errb)
	}
	if !strings.Contains(out, "Table 3") {
		t.Errorf("flush failure clobbered the report: %q", out)
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
