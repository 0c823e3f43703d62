package subject

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// readers lists, by scanning every gate's fanins, the gates reading
// each gate, ascending: what Fanouts must return.
func readers(d *DAG) [][]int {
	out := make([][]int, d.NumGates())
	for i := 0; i < d.NumGates(); i++ {
		for _, fi := range d.Fanins(i) {
			out[fi] = append(out[fi], i)
		}
	}
	return out
}

// randomDAG builds a random base-gate DAG of about n gates over three
// PIs, with one output on its last gate. Nothing reads its fanouts.
func randomDAG(rng *rand.Rand, n int) *DAG {
	d := New()
	ids := []int{d.AddPI("a"), d.AddPI("b"), d.AddPI("c")}
	for len(ids) < n {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if rng.Intn(3) == 0 {
			ids = append(ids, d.AddInv(a))
		} else if a != b {
			ids = append(ids, d.AddNand2(a, b))
		}
	}
	d.AddOutput("o", ids[len(ids)-1])
	return d
}

// TestSetGatePatchesClonedFanouts: a clone shares its original's
// reader index, SetGate patches a private copy of it, and the patched
// index lists exactly the readers of the edited DAG while the
// original's stays as it was.
func TestSetGatePatchesClonedFanouts(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	d := randomDAG(rng, 120)
	d.Fanouts(0)
	want := readers(d)
	cur := d
	for step := 0; step < 40; step++ {
		next := cur.Clone()
		for e := 0; e < 1+rng.Intn(3); e++ {
			g := rng.Intn(next.NumGates())
			if t := next.Gate(g).Type; (t != Nand2 && t != Inv) || g < 2 {
				continue
			}
			a, b := rng.Intn(g), rng.Intn(g)
			var err error
			if a == b {
				err = next.SetGate(g, Inv, [2]int{a, -1})
			} else {
				err = next.SetGate(g, Nand2, [2]int{a, b})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for g, rs := range readers(next) {
			if got := next.Fanouts(g); !slices.Equal(got, rs) {
				t.Fatalf("step %d: gate %d fanouts %v, readers %v", step, g, got, rs)
			}
		}
		cur = next
	}
	for g := range want {
		if got := d.Fanouts(g); !slices.Equal(got, want[g]) {
			t.Fatalf("original gate %d fanouts %v changed from %v", g, got, want[g])
		}
	}
}

// TestConcurrentFirstFanouts: goroutines that all call Fanouts first
// on a DAG nobody warmed — a fresh one, a clone edited by SetGate read
// beside its original, and a clone grown by AddReplicaOf — each get
// the readers a serial scan lists, and all of them the same lists.
func TestConcurrentFirstFanouts(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	d := randomDAG(rng, 400)
	want := readers(d)
	check := func(name string, dags []*DAG, wants [][][]int) {
		t.Helper()
		const readersN = 8
		got := make([][][][]int, readersN)
		var wg sync.WaitGroup
		for r := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[r] = make([][][]int, len(dags))
				for i, dd := range dags {
					got[r][i] = make([][]int, dd.NumGates())
					for g := range got[r][i] {
						got[r][i][g] = dd.Fanouts(g)
					}
				}
			}()
		}
		wg.Wait()
		for i := range dags {
			for g, rs := range wants[i] {
				for r := range got {
					lst := got[r][i][g]
					if !slices.Equal(lst, rs) {
						t.Fatalf("%s: DAG %d gate %d reader %d: fanouts %v, readers %v", name, i, g, r, lst, rs)
					}
					if len(lst) > 0 && &lst[0] != &got[0][i][g][0] {
						t.Fatalf("%s: DAG %d gate %d: readers %d and 0 got different lists", name, i, g, r)
					}
				}
			}
		}
	}
	check("fresh", []*DAG{d}, [][][]int{want})

	edited := d.Clone()
	for e := 0; e < 20; e++ {
		g := 3 + rng.Intn(edited.NumGates()-3)
		if t := edited.Gate(g).Type; t != Nand2 && t != Inv {
			continue
		}
		a, b := rng.Intn(g), rng.Intn(g)
		var err error
		if a == b {
			err = edited.SetGate(g, Inv, [2]int{a, -1})
		} else {
			err = edited.SetGate(g, Nand2, [2]int{a, b})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	check("SetGate clone", []*DAG{edited, d}, [][][]int{readers(edited), want})

	replicated := d.Clone()
	for _, g := range []int{len(want) - 1, len(want) / 2} {
		if t := replicated.Gate(g).Type; t != Nand2 && t != Inv {
			continue
		}
		if _, err := replicated.AddReplicaOf(g); err != nil {
			t.Fatal(err)
		}
	}
	check("AddReplicaOf clone", []*DAG{replicated, d}, [][][]int{readers(replicated), want})
}

// TestCloneRewireDoesNotReshare: a clone starts without the original's
// structural-hash entries, so after rewiring a gate on the clone,
// building the gate's old shape yields a new gate rather than the
// rewired one, while the original still shares its own.
func TestCloneRewireDoesNotReshare(t *testing.T) {
	t.Parallel()
	d := New()
	a, b, c := d.AddPI("a"), d.AddPI("b"), d.AddPI("c")
	n := d.AddNand2(a, b)
	cl := d.Clone()
	if err := cl.RewireFanin(n, a, c); err != nil {
		t.Fatal(err)
	}
	m := cl.AddNand2(a, b)
	if m == n {
		t.Fatalf("clone's NAND2(a, b) returned the rewired gate %d, now %v", n, cl.Fanins(n))
	}
	if got := cl.Fanins(m); !slices.Equal(got, []int{a, b}) {
		t.Errorf("clone's new gate %d reads %v, want [%d %d]", m, got, a, b)
	}
	gates := d.NumGates()
	if got := d.AddNand2(a, b); got != n || d.NumGates() != gates {
		t.Errorf("original's NAND2(a, b) = %d with %d gates, want the shared gate %d with %d", got, d.NumGates(), n, gates)
	}
}
