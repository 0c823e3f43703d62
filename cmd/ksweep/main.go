// Command ksweep prints Tables 2 (SPLA) and 4 (PDC): the paper's K
// ladder against a fixed die. It is cmd/paper restricted to those two
// blocks, with the same flags and exit codes.
//
// Usage:
//
//	ksweep               # full size, ≈7 s on 2 vCPUs
//	ksweep -scale 0.1    # scaled down
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
	return paper.Run("ksweep", []string{"Table 2", "Table 4"}, args, stdout, stderr)
}
