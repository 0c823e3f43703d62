package place

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/obs"
)

// fingerprintNetlist builds a seeded synthetic netlist that exercises
// every refinement edge case: hub nets of 500+ pins (some with pads),
// nets of one cell plus pads, degree-1 and pad-only nets, a cell
// listed twice on one net, and two nonzero widths plus zero-width
// cells.
func fingerprintNetlist(layout Layout) *Netlist {
	rng := rand.New(rand.NewSource(20))
	const n = 2400
	nl := &Netlist{Widths: make([]float64, n)}
	for i := range nl.Widths {
		switch {
		case i%17 == 0:
			nl.Widths[i] = 0
		case i%3 == 0:
			nl.Widths[i] = 2.5
		default:
			nl.Widths[i] = 1.5
		}
	}
	pad := func() geom.Point {
		return geom.Pt(layout.Die.Min.X+rng.Float64()*layout.Die.W(), layout.Die.Min.Y)
	}
	// Hub nets, like the subject DAG's PI nets reaching every
	// product-term gate.
	for h := 0; h < 4; h++ {
		var net Net
		for i := 0; i < 520+40*h; i++ {
			net.Cells = append(net.Cells, rng.Intn(n))
		}
		if h%2 == 0 {
			net.Pads = []geom.Point{pad()}
		}
		nl.Nets = append(nl.Nets, net)
	}
	// Local 2–5 pin nets.
	for i := 0; i < 3*n; i++ {
		a := rng.Intn(n)
		net := Net{Cells: []int{a}}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			net.Cells = append(net.Cells, (a+1+rng.Intn(40))%n)
		}
		nl.Nets = append(nl.Nets, net)
	}
	for i := 0; i < 60; i++ {
		c := rng.Intn(n)
		nl.Nets = append(nl.Nets,
			Net{Cells: []int{c}, Pads: []geom.Point{pad()}}, // one cell plus a pad
			Net{Cells: []int{rng.Intn(n)}},                  // degree 1
		)
	}
	nl.Nets = append(nl.Nets,
		Net{Pads: []geom.Point{pad(), pad()}}, // pads only
		Net{Cells: []int{5, 9, 5}},            // cell 5 listed twice
		Net{Cells: []int{11, 11}},             // one cell twice, nothing else
	)
	return nl
}

// placementHash is the SHA-256 of every cell's position (float bits)
// and row, followed by the refinement counters.
func placementHash(p *Placement, rec *obs.Recorder) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range p.Pos {
		put(math.Float64bits(p.Pos[i].X))
		put(math.Float64bits(p.Pos[i].Y))
		put(uint64(int64(p.Row[i])))
	}
	put(uint64(rec.Counter("place.refine_moves").Value()))
	put(uint64(rec.Counter("place.refine_passes").Value()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementFingerprint pins the exact placements (and refinement
// move/pass counts) of the bisection and seeded placers.
// Refinement speed-ups must not move a single bit; a change that
// intentionally alters placement quality updates these hashes.
func TestPlacementFingerprint(t *testing.T) {
	t.Parallel()
	layout, err := LayoutWithRows(24, 260, 6.656)
	if err != nil {
		t.Fatal(err)
	}
	nl := fingerprintNetlist(layout)
	seedRNG := rand.New(rand.NewSource(21))
	seeds := make([]geom.Point, nl.NumCells())
	for i := range seeds {
		seeds[i] = geom.Pt(layout.Die.Min.X+seedRNG.Float64()*layout.Die.W(), layout.Die.Min.Y+seedRNG.Float64()*layout.Die.H())
	}
	cases := []struct {
		name  string
		place func(ctx context.Context) (*Placement, error)
		want  string
	}{
		{"bisection", func(ctx context.Context) (*Placement, error) {
			return PlaceNetlist(ctx, nl, layout, Options{Seed: 3, RefinePasses: 6})
		}, "90d0b26107ba0342df27081a934e3cda13482642da67b8c8d8c8c46b434ba953"},
		{"seeded", func(ctx context.Context) (*Placement, error) {
			return PlaceSeeded(ctx, nl, layout, seeds, Options{Seed: 5, RefinePasses: 6})
		}, "65c7d9883d0c3efbc5bd863d142532c053c65f0d7009e5dff345e79dd03d8f91"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rec := obs.New()
			p, err := tc.place(obs.WithRecorder(context.Background(), rec))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("moves=%d passes=%d", rec.Counter("place.refine_moves").Value(), rec.Counter("place.refine_passes").Value())
			if got := placementHash(p, rec); got != tc.want {
				t.Errorf("placement hash = %s, want %s", got, tc.want)
			}
		})
	}
}
