package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// The exit codes paper.Run returns.
const (
	exitOK    = 0
	exitErr   = 1
	exitUsage = 2
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestTableRuns checks the happy path at test scale: Tables 3 and 5,
// every row with its Routed field, and the run time on stderr only.
func TestTableRuns(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "0.08")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitOK, errb)
	}
	if !strings.HasPrefix(out, "Table 3: ") || !strings.Contains(out, "\n\nTable 5: ") || strings.Count(out, "Table ") != 2 {
		t.Errorf("stdout is not Tables 3 and 5: %q", out)
	}
	for _, want := range []string{"\nK=0 ", "\nK=0.001 ", "\nSIS ", "Routed\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q: %q", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "µm² / ") && !strings.HasSuffix(line, "  yes") && !strings.HasSuffix(line, "  no") {
			t.Errorf("row without a Routed field: %q", line)
		}
	}
	if strings.Contains(out, "wall-clock") || !strings.Contains(errb, "wall-clock") {
		t.Errorf("run times belong on stderr only: stdout %q, stderr %q", out, errb)
	}
}

// TestFlushFailureKeepsPipelineExitCode is the cliobs satellite's
// regression: an unwritable -metrics path must be reported on stderr
// without clobbering the successful pipeline's report, and the flush
// failure alone decides the nonzero exit.
func TestFlushFailureKeepsPipelineExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "metrics.jsonl")
	code, out, errb := runCLI(t, "-scale", "0.08", "-metrics", bad)
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

// TestUsageErrors pins the usage exit paths. The -bench flag is gone
// (both tables print), so a command line that still passes it exits
// with the usage code.
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
