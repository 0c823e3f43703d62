// Command timing prints Tables 3 (SPLA) and 5 (PDC): static timing of
// each mapping at its minimal routable die. It is cmd/paper restricted
// to those two blocks, with the same flags and exit codes.
//
// Usage:
//
//	timing               # full size, ≈35 s on 2 vCPUs
//	timing -scale 0.1    # scaled down
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
	return paper.Run("timing", []string{"Table 3", "Table 5"}, args, stdout, stderr)
}
