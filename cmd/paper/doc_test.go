//go:build !race

package main

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesRun runs the command at full size and fails
// when any block it prints is not embedded verbatim, as a fenced code
// block, in EXPERIMENTS.md. The failure prints the block to paste. It
// checks output text only, so it stays out of -short and the race
// detector; the route and flow determinism tests cover concurrency.
func TestExperimentsDocMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at full size (≈50 s on 2 vCPUs)")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d (stderr %q)", code, exitOK, errb)
	}
	for _, b := range checkBlocks(t, out) {
		if !strings.Contains(string(doc), "```\n"+b+"```\n") {
			t.Errorf("EXPERIMENTS.md does not embed the measured %s block; replace it with this one, "+
				"as `go run ./cmd/paper` prints it:\n```\n%s```", blockName(b), b)
		}
	}
}
