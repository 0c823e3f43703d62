package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/subject"
)

// diffForests describes the first difference between two forests:
// fathers, roots, trees (root and gate order) and the root-of map.
func diffForests(got, want *Forest) error {
	if !slices.Equal(got.Father, want.Father) {
		for g := range want.Father {
			if g >= len(got.Father) || got.Father[g] != want.Father[g] {
				return fmt.Errorf("father of gate %d", g)
			}
		}
		return fmt.Errorf("%d fathers, want %d", len(got.Father), len(want.Father))
	}
	if !slices.Equal(got.Roots, want.Roots) {
		return fmt.Errorf("roots %v, want %v", got.Roots, want.Roots)
	}
	gt, wt := got.Trees(), want.Trees()
	if len(gt) != len(wt) {
		return fmt.Errorf("%d trees, want %d", len(gt), len(wt))
	}
	for i := range wt {
		if gt[i].Root != wt[i].Root || !slices.Equal(gt[i].Gates, wt[i].Gates) {
			return fmt.Errorf("tree %d: root %d gates %v, want root %d gates %v", i, gt[i].Root, gt[i].Gates, wt[i].Root, wt[i].Gates)
		}
	}
	if !slices.Equal(got.RootOf(), want.RootOf()) {
		return fmt.Errorf("root-of maps differ")
	}
	return nil
}

// randomPlacedDAG builds a random NAND2/INV DAG over a few PIs with
// random positions; some outputs have pads, some do not.
func randomPlacedDAG(rng *rand.Rand, gates int) (*subject.DAG, []geom.Point, map[int][]geom.Point) {
	d := subject.New()
	var ids []int
	for i := 0; i < 6; i++ {
		ids = append(ids, d.AddPI(fmt.Sprintf("i%d", i)))
	}
	for len(ids) < gates {
		a := ids[len(ids)-1-rng.Intn(min(len(ids), 12))]
		if rng.Intn(4) == 0 {
			ids = append(ids, d.AddInv(a))
			continue
		}
		b := ids[rng.Intn(len(ids))]
		if a != b {
			ids = append(ids, d.AddNand2(a, b))
		}
	}
	pads := make(map[int][]geom.Point)
	for o := 0; o < 5; o++ {
		g := ids[len(ids)-1-rng.Intn(gates/3)]
		d.AddOutput(fmt.Sprintf("o%d", o), g)
		if o%2 == 0 {
			pads[g] = append(pads[g], geom.Pt(rng.Float64()*100, 0))
		}
	}
	pos := make([]geom.Point, d.NumGates())
	for i := range pos {
		// A coarse lattice, so equal distances (the tie-break) occur.
		pos[i] = geom.Pt(float64(rng.Intn(20)*5), float64(rng.Intn(20)*5))
	}
	return d, pos, pads
}

// TestRepartitionPDPMatchesPartition chains random edits — function
// rewrites and reconnects that make cones dead or live, nudges and
// swaps — and checks after every step that the edit-local
// re-partition of the previous forest equals a full PDP partition of
// the edited design.
func TestRepartitionPDPMatchesPartition(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, pos, pads := randomPlacedDAG(rng, 60+rng.Intn(120))
		f, err := Partition(Input{DAG: d, Pos: pos, POPads: pads}, PDP)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			d2 := d.Clone()
			pos2 := slices.Clone(pos)
			var edited, moved []int
			base := func() int {
				for {
					g := rng.Intn(d2.NumGates())
					if t := d2.Gate(g).Type; (t == subject.Nand2 || t == subject.Inv) && !slices.Contains(edited, g) {
						return g
					}
				}
			}
			for e := 0; e < 1+rng.Intn(3); e++ {
				switch rng.Intn(4) {
				case 0, 1: // rewire a gate to earlier drivers
					g := base()
					a, b := rng.Intn(g), rng.Intn(g)
					var err error
					if a == b || rng.Intn(3) == 0 {
						err = d2.SetGate(g, subject.Inv, [2]int{a, -1})
					} else {
						err = d2.SetGate(g, subject.Nand2, [2]int{a, b})
					}
					if err != nil {
						t.Fatal(err)
					}
					edited = append(edited, g)
				case 2: // nudge
					g := base()
					if !slices.Contains(moved, g) {
						pos2[g] = pos2[g].Add(geom.Pt(float64(rng.Intn(5)-2)*5, float64(rng.Intn(5)-2)*5))
						moved = append(moved, g)
					}
				case 3: // swap
					g, h := base(), base()
					if g != h && !slices.Contains(moved, g) && !slices.Contains(moved, h) {
						pos2[g], pos2[h] = pos2[h], pos2[g]
						moved = append(moved, g, h)
					}
				}
			}
			in := Input{DAG: d2, Pos: pos2, POPads: pads}
			got, err := RepartitionPDP(f, d, in, edited, moved)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Partition(in, PDP)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffForests(got, want); err != nil {
				t.Fatalf("seed %d step %d (edited %v, moved %v): %v", seed, step, edited, moved, err)
			}
			d, pos, f = d2, pos2, got
		}
	}
}
