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

// TestTableRuns checks the happy path at test scale: Table 1 and
// nothing else.
func TestTableRuns(t *testing.T) {
	code, out, errb := runCLI(t, "-scale", "0.08")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitOK, errb)
	}
	if !strings.HasPrefix(out, "Table 1: ") || strings.Count(out, "Table ") != 1 || strings.Contains(out, "Figure") {
		t.Errorf("stdout is not Table 1 alone: %q", out)
	}
	for _, want := range []string{"\nSIS ", "\nDAGON "} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q: %q", want, out)
		}
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
	if !strings.Contains(out, "Table 1") {
		t.Errorf("flush failure clobbered the report: %q", out)
	}
}

// TestUsageErrors pins the usage exit path.
func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "-definitely-not-a-flag"); code != exitUsage {
		t.Errorf("exit = %d, want %d", code, exitUsage)
	}
}
