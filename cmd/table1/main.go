// Command table1 prints Table 1: SIS against DAGON on the TOO_LARGE
// circuit in one fixed die. It is cmd/paper restricted to that block,
// with the same flags and exit codes.
//
// Usage:
//
//	table1               # full size, ≈5 s on 2 vCPUs
//	table1 -scale 0.1    # scaled down
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
	return paper.Run("table1", []string{"Table 1"}, args, stdout, stderr)
}
