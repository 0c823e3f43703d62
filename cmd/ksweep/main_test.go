package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// The exit codes paper.Run returns.
const (
	exitErr   = 1
	exitUsage = 2
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlushFailureKeepsPipelineExitCode is the cliobs satellite's
// regression: an unwritable -metrics path must be reported on stderr,
// the sweep's own report must still print, and — since the pipeline
// itself succeeded — the flush failure alone decides the nonzero exit.
func TestFlushFailureKeepsPipelineExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "metrics.jsonl")
	code, out, errb := runCLI(t, "-scale", "0.05", "-metrics", bad)
	if code != exitErr {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitErr, errb)
	}
	if !strings.Contains(errb, "no-such-dir") {
		t.Errorf("flush error not reported on stderr: %q", errb)
	}
	if !strings.HasPrefix(out, "Table 2: ") || !strings.Contains(out, "\n\nTable 4: ") {
		t.Errorf("flush failure clobbered the sweep report: %q", out)
	}
	if strings.Contains(out, "Table 1") || strings.Contains(out, "Figure") {
		t.Errorf("ksweep printed a block other than Tables 2 and 4: %q", out)
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
