// Command paper prints the paper's evaluation: Tables 2, 4, 1, 3 and
// 5, then the Figure 1 and Figure 3 experiments, in EXPERIMENTS.md's
// order. Each block on stdout is the exact text EXPERIMENTS.md embeds,
// and a test fails when the two differ; what varies between runs (wall
// clock, CPU count) goes to stderr.
//
// Usage:
//
//	paper                # full size, ≈50 s on 2 vCPUs
//	paper -scale 0.1     # every circuit scaled down
//
// Exit codes: 0 success, 1 error (including a failed -metrics/-trace
// flush after an otherwise clean run), 2 usage.
package main

import (
	"io"
	"os"

	"casyn/internal/paper"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return paper.Run("paper", nil, args, stdout, stderr)
}
