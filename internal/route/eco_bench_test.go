package route

import (
	"context"
	"math/rand"
	"testing"

	"casyn/internal/bench"
)

// BenchmarkRouteECO times the incremental reroute of edits on the
// generated 20k-cell placed netlist. The edits follow the RouteECO
// reference chain (ecoEdit): by step, a net is removed, a new net is
// inserted, two nets trade places, and one to three cells move.
// Inserted and removed nets renumber every later net, and a swap
// breaks the alignment's order, so the bytes per op show what a
// successor State shares with its parent. "chain" reroutes each edit
// against the previous iteration's State; "from-base" reroutes every
// edit against the from-scratch State and drops the successor, as a
// service answering ECO requests against one cached baseline does. It
// is the router's own signal for the fast ECO path; making the next
// edit is not timed.
func BenchmarkRouteECO(b *testing.B) {
	nl0, pl0, layout, err := bench.RouteSpecAt(20_000).Generate()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	_, st0, err := RouteNetlistState(ctx, nl0, pl0, layout, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, chain := range []bool{true, false} {
		name := "from-base"
		if chain {
			name = "chain"
		}
		b.Run(name, func(b *testing.B) {
			nl, pl, st := nl0, pl0, st0
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nl2, pl2, oldNet := ecoEdit(rng, i, nl, pl, layout)
				b.StartTimer()
				_, st2, err := RouteECO(ctx, st, nl2, pl2, oldNet)
				if err != nil {
					b.Fatal(err)
				}
				if chain {
					nl, pl, st = nl2, pl2, st2
				}
			}
		})
	}
}
