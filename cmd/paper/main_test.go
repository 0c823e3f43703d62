package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"casyn/internal/obs"
)

// The exit codes paper.Run returns.
const (
	exitOK    = 0
	exitErr   = 1
	exitUsage = 2
)

// order is every block the command prints, in EXPERIMENTS.md's order.
var order = []string{"Table 2", "Table 4", "Table 1", "Table 3", "Table 5", "Figure 1", "Figure 3"}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// titleRE matches the first line of every printed block.
var titleRE = regexp.MustCompile(`(?m)^(Table|Figure) \d+:`)

// splitBlocks cuts the command's stdout into its blocks, each ending
// in a newline, without the blank line that separates them.
func splitBlocks(out string) []string {
	idx := titleRE.FindAllStringIndex(out, -1)
	var blocks []string
	for i, m := range idx {
		end := len(out)
		if i+1 < len(idx) {
			end = idx[i+1][0] - 1
		}
		blocks = append(blocks, out[m[0]:end])
	}
	return blocks
}

// blockName is a block's title up to its colon, "Table 2" say.
func blockName(b string) string {
	return b[:strings.IndexByte(b, ':')]
}

// checkBlocks asserts stdout is exactly the blocks, in order, joined
// by blank lines, with no trailing whitespace on any line (a Markdown
// editor would strip it from the pasted copy).
func checkBlocks(t *testing.T, out string) []string {
	t.Helper()
	got := splitBlocks(out)
	if strings.Join(got, "\n") != out {
		t.Fatalf("stdout is not its blocks joined by blank lines:\n%s", out)
	}
	if len(got) != len(order) {
		t.Fatalf("%d blocks printed, want %d:\n%s", len(got), len(order), out)
	}
	for i, b := range got {
		if blockName(b) != order[i] {
			t.Errorf("block %d is %q, want %q", i, blockName(b), order[i])
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.TrimRight(line, " \t") != line {
			t.Errorf("trailing whitespace: %q", line)
		}
	}
	return got
}

// TestTableRuns runs every experiment at test scale with -metrics: each
// block lands on stdout in order, every timing row carries its Routed
// field, the run's times go to stderr, and the flushed JSONL carries
// the flow's spans.
func TestTableRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	code, out, errb := runCLI(t, "-scale", "0.05", "-workers", "2", "-metrics", path)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitOK, errb)
	}
	checkBlocks(t, out)
	for _, want := range []string{"\nSIS ", "\nDAGON ", "\nK=0 ", "\nK=0.001 ", "Routed\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
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
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("metrics file is not valid JSONL: %v", err)
	}
	if snap.SpanCounts()["flow.iteration"] == 0 {
		t.Errorf("no flow.iteration spans recorded: %v", snap.SpanCounts())
	}
}

// TestFlushFailureKeepsPipelineExitCode: an unwritable -metrics path
// is reported on stderr, every block still prints, and — since the
// experiments themselves succeeded — the flush failure alone decides
// the nonzero exit.
func TestFlushFailureKeepsPipelineExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "metrics.jsonl")
	code, out, errb := runCLI(t, "-scale", "0.05", "-metrics", bad)
	if code != exitErr {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitErr, errb)
	}
	if !strings.Contains(errb, "no-such-dir") {
		t.Errorf("flush error not reported on stderr: %q", errb)
	}
	checkBlocks(t, out)
}

// TestUsageErrors pins the usage exit paths. The table tools' old
// -bench flag is gone, so an old command line fails loudly.
func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad bench":  {"-bench", "spla"},
		"bad flag":   {"-definitely-not-a-flag"},
		"positional": {"spla"},
		"zero scale": {"-scale", "0"},
	} {
		t.Run(name, func(t *testing.T) {
			if code, _, _ := runCLI(t, args...); code != exitUsage {
				t.Errorf("exit = %d, want %d", code, exitUsage)
			}
		})
	}
}
