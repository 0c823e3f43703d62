package place

import (
	"context"

	"math/rand"
	"testing"
	"time"
)

// scale30kNetlist is the paper's circuit scale (~30k base gates):
// random 2-pin nets plus 16 PI-style hub nets, each spanning about 1/8
// of the cells, the shape that makes refinement's per-move wirelength
// evaluation expensive on the subject DAG.
func scale30kNetlist() (*Netlist, Layout) {
	rng := rand.New(rand.NewSource(1))
	n := 30000
	nl := &Netlist{Widths: make([]float64, n)}
	for i := range nl.Widths {
		nl.Widths[i] = 1.5
	}
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			nl.Nets = append(nl.Nets, Net{Cells: []int{a, b}})
		}
	}
	for h := 0; h < 16; h++ {
		var hub Net
		for c := rng.Intn(8); c < n; c += 8 {
			hub.Cells = append(hub.Cells, c)
		}
		nl.Nets = append(nl.Nets, hub)
	}
	layout, _ := LayoutWithRows(70, 700, 6.656)
	return nl, layout
}

// TestScale30k guards placer performance on scale30kNetlist. Its 60 s
// bound is raceSlowdown times longer under -race. It is skipped under
// -short.
func TestScale30k(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in short mode")
	}
	nl, layout := scale30kNetlist()
	start := time.Now()
	p, err := PlaceNetlist(context.Background(), nl, layout, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("placed %d cells in %v, HPWL=%g", nl.NumCells(), elapsed, nl.HPWL(p))
	if bound := raceSlowdown * 60 * time.Second; elapsed > bound {
		t.Errorf("placement took %v, want < %v", elapsed, bound)
	}
}

// BenchmarkPlaceNetlist places scale30kNetlist: bisection alone
// (refinement disabled) and the full placement, bisection, legalization
// and refinement.
func BenchmarkPlaceNetlist(b *testing.B) {
	nl, layout := scale30kNetlist()
	for _, bc := range []struct {
		name   string
		passes int
	}{{"bisect", -1}, {"full", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlaceNetlist(context.Background(), nl, layout, Options{Seed: 1, RefinePasses: bc.passes}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
