package route

import (
	"context"
	"math/rand"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/geom"
	"casyn/internal/place"
)

// BenchmarkRouteECO times the incremental reroute along a chain of
// single-cell moves on the generated 20k-cell placed netlist: each
// iteration nudges one random cell by up to two gcells and reroutes
// against the previous iteration's State. It is the router's own
// signal for the fast ECO path; copying the placement for the next
// move is not timed.
func BenchmarkRouteECO(b *testing.B) {
	nl, pl, layout, err := bench.RouteSpecAt(20_000).Generate()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	_, st, err := RouteNetlistState(ctx, nl, pl, layout, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	oldNet := identityNets(nl)
	step := 2 * st.opts.GCellSize
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		next := &place.Placement{Pos: append([]geom.Point(nil), pl.Pos...), Row: pl.Row}
		c := rng.Intn(len(next.Pos))
		p := next.Pos[c].Add(geom.Pt((2*rng.Float64()-1)*step, (2*rng.Float64()-1)*step))
		p.X = min(max(p.X, layout.Die.Min.X), layout.Die.Max.X)
		p.Y = min(max(p.Y, layout.Die.Min.Y), layout.Die.Max.Y)
		next.Pos[c] = p
		b.StartTimer()
		_, st2, err := RouteECO(ctx, st, nl, next, oldNet)
		if err != nil {
			b.Fatal(err)
		}
		pl, st = next, st2
	}
}
