package route_test

import (
	"context"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/experiments"
	"casyn/internal/route"
)

// BenchmarkRouteNetlist times a full route of the generated 100k-cell
// placed netlist with the calibrated router options on two workers:
// decomposition, first pass, rip-up and the result and State assembly.
// Generating the netlist is not timed.
func BenchmarkRouteNetlist(b *testing.B) {
	nl, pl, layout, err := bench.RouteSpecAt(100_000).Generate()
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.RouteOpts()
	opts.Workers = 2
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := route.RouteNetlistState(ctx, nl, pl, layout, opts); err != nil {
			b.Fatal(err)
		}
	}
}
