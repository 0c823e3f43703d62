// Export: synthesize a small benchmark and write the hand-off
// artifacts — structural Verilog, a BLIF dump of the optimized Boolean
// network, a cell-usage report, and the slack report — to stdout.
//
//	go run ./examples/export
package main

import (
	"fmt"
	"log"
	"os"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/bnet"
)

func main() {
	log.SetFlags(0)
	spec := bench.SPLA.ScaledSpec(0.03)
	pla, err := bench.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}

	// The optimized Boolean network, in BLIF for interchange with
	// SIS/ABC-style tools.
	n, err := bnet.FromPLA(pla)
	if err != nil {
		log.Fatal(err)
	}
	bnet.FastExtract(n, bnet.FastExtractOptions{})
	n.Sweep()
	fmt.Println("=== optimized network (BLIF) ===")
	if err := n.WriteBLIF(os.Stdout, "spla_small"); err != nil {
		log.Fatal(err)
	}

	// The mapped design.
	res, err := casyn.Synthesize(pla, casyn.Options{K: 0.001, RunTiming: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("=== mapped netlist (structural Verilog) ===")
	if err := res.Mapped.WriteVerilog(os.Stdout, "spla_small"); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("=== cell usage ===")
	if err := res.Mapped.WriteCellReport(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Println("=== timing ===")
	if err := res.Timing.WritePath(os.Stdout); err != nil {
		log.Fatal(err)
	}
	rep := res.Timing.Slacks(res.CriticalPathNs * 1.02)
	if err := rep.Write(os.Stdout, 5); err != nil {
		log.Fatal(err)
	}
}
