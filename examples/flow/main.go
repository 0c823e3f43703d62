// Flow: the paper's Figure 3 methodology. The technology-independent
// netlist is generated and placed once; technology mapping is repeated
// with increasing congestion factor K — evaluating the congestion map
// after each mapping — until the design routes in the fixed die.
//
//	go run ./examples/flow
package main

import (
	"context"
	"fmt"
	"log"

	"casyn/internal/bench"
	"casyn/internal/experiments"
)

func main() {
	log.SetFlags(0)
	// A half-scale SPLA-class circuit keeps this demo under a minute.
	// Tighten the die well beyond the standard floorplan so the first
	// iterations are congested and the flow has something to do.
	res, err := experiments.Figure3(context.Background(), bench.SPLA, 0.5, 1.17)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 3: modified ASIC design flow")
	fmt.Println("(mapping re-run with increasing K until the congestion map is clean)")
	fmt.Println()
	fmt.Printf("%-9s %-10s %-13s %-11s %-9s\n", "K", "cells", "utilization", "violations", "decision")
	for _, it := range res.Iterations {
		decision := "congestion NOT OK -> increase K"
		if it.Routable {
			decision = "congestion OK -> place & route"
		}
		fmt.Printf("%-9g %-10d %-13.2f %-11d %s\n",
			it.K, it.NumCells, it.Utilization*100, it.FailedConnections, decision)
	}
	fmt.Println()
	if res.Routable {
		fmt.Printf("accepted mapping: K = %g\n", res.AcceptedK)
	} else {
		fmt.Println("no routable mapping found: relax the floorplan or resynthesize")
	}
}
