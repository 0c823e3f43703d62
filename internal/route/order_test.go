package route

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/place"
)

// referenceSort is the comparison-sort formulation of the canonical
// routing order: longest first, stable.
func referenceSort(segs []twoPin) []twoPin {
	out := append([]twoPin(nil), segs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].length() > out[j].length() })
	return out
}

// sortSegs is the serial formulation of the canonical routing order
// decompose builds: segs counting-sorted on length as one block,
// with slots[i] the position segs[i] takes in sorted. The input slice
// is left as it was.
func sortSegs(segs []twoPin) (sorted []twoPin, slots []int32) {
	slots = make([]int32, len(segs))
	for i := range segs {
		slots[i] = int32(segs[i].length())
	}
	blockSlots(1, [][]int32{slots})
	sorted = make([]twoPin, len(segs))
	for i, slot := range slots {
		sorted[slot] = segs[i]
	}
	return sorted, slots
}

// netSlots groups the canonical slots sortSegs returned by net: for
// each of nets nets, the positions its segments take in the sorted
// list, in emission (mstPairs) order. segs must be the unsorted input,
// in emission order: net by net, each net's segments contiguous.
func netSlots(segs []twoPin, slots []int32, nets int) [][]int32 {
	out := make([][]int32, nets)
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && segs[j].net == segs[i].net {
			j++
		}
		out[segs[i].net] = slots[i:j:j]
		i = j
	}
	return out
}

// mstPairs is the reference formulation of mstScratch.pairs: Prim's
// algorithm over the terminals with an in-tree mask scanned in index
// order, the first of the nearest terminals joining.
func mstPairs(pts [][2]int) [][2][2]int {
	n := len(pts)
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	dist := make([]int, n)
	from := make([]int, n)
	inTree[0] = true
	for i := 1; i < n; i++ {
		dist[i] = manhattan(pts[i], pts[0])
	}
	var out [][2][2]int
	for added := 1; added < n; added++ {
		best, bestD := -1, int(^uint(0)>>1)
		for i := range pts {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		out = append(out, [2][2]int{pts[from[best]], pts[best]})
		for i := range pts {
			if d := manhattan(pts[i], pts[best]); !inTree[i] && d < dist[i] {
				dist[i], from[i] = d, best
			}
		}
	}
	return out
}

func sameSeg(x, y *twoPin) bool { return x.net == y.net && x.a == y.a && x.b == y.b }

// randomSegs emits n segments net by net (each net's segments
// contiguous, as the decomposition emits them), with lengths drawn from
// a small range so most lengths repeat. Each segment's a[0] is its
// emission index, so ties stay distinguishable.
func randomSegs(rng *rand.Rand, n, maxLen int) (segs []twoPin, nets int) {
	for i := 0; i < n; {
		k := 1 + rng.Intn(4)
		for j := 0; j < k && i < n; j, i = j+1, i+1 {
			l := rng.Intn(maxLen + 1)
			dx := rng.Intn(l + 1)
			segs = append(segs, twoPin{net: nets, a: [2]int{i, 0}, b: [2]int{i + dx, l - dx}})
		}
		nets++
	}
	return segs, nets
}

// TestSortSegsCanonicalOrder pins the canonical routing order: the
// counting sort equals a stable comparison sort on length, and every
// segment lands at the slot sortSegs reports for it — the slot netSlots
// hands RouteECO for reusing a net's previous paths.
func TestSortSegsCanonicalOrder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		switch trial {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		segs, nets := randomSegs(rng, n, 1+rng.Intn(12))
		input := append([]twoPin(nil), segs...)
		sorted, slots := sortSegs(segs)
		for i := range segs {
			if !sameSeg(&segs[i], &input[i]) {
				t.Fatalf("trial %d: sortSegs modified its input at %d", trial, i)
			}
		}
		want := referenceSort(segs)
		if len(sorted) != len(want) || len(slots) != len(segs) {
			t.Fatalf("trial %d: %d sorted, %d slots for %d segments", trial, len(sorted), len(slots), len(segs))
		}
		for i := range want {
			if !sameSeg(&sorted[i], &want[i]) {
				t.Fatalf("trial %d: position %d holds %+v, stable sort has %+v", trial, i, sorted[i], want[i])
			}
		}
		bySlots := netSlots(segs, slots, nets)
		for ni, ss := range bySlots {
			k := 0
			for i := range segs {
				if segs[i].net != ni {
					continue
				}
				if k >= len(ss) || !sameSeg(&sorted[ss[k]], &segs[i]) {
					t.Fatalf("trial %d: net %d segment %d is not at its netSlots slot", trial, ni, k)
				}
				k++
			}
			if k != len(ss) {
				t.Fatalf("trial %d: net %d has %d segments, netSlots lists %d", trial, ni, k, len(ss))
			}
		}
		// decompose numbers the segments block by block: any split of
		// the emission order into blocks gives the same slots.
		var blocks [][]int32
		for lo := 0; lo < len(segs); {
			hi := min(lo+rng.Intn(40), len(segs))
			block := make([]int32, hi-lo)
			for i := range block {
				block[i] = int32(segs[lo+i].length())
			}
			blocks = append(blocks, block)
			lo = hi
		}
		if total := blockSlots(1+rng.Intn(3), blocks); total != len(segs) {
			t.Fatalf("trial %d: blockSlots counts %d segments, want %d", trial, total, len(segs))
		}
		i := 0
		for _, block := range blocks {
			for _, slot := range block {
				if slot != slots[i] {
					t.Fatalf("trial %d: segment %d has block slot %d, sortSegs slot %d", trial, i, slot, slots[i])
				}
				i++
			}
		}
	}
}

// TestMSTScratchMatchesPrim checks the reusable spanning-tree scratch
// against the reference mstPairs on random terminal sets with many equal
// distances, reusing one scratch across sets of every size.
func TestMSTScratchMatchesPrim(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	var s mstScratch
	var out [][2][2]int
	for trial := 0; trial < 2000; trial++ {
		pts := make([][2]int, rng.Intn(24))
		for i := range pts {
			pts[i] = [2]int{rng.Intn(6), rng.Intn(6)}
		}
		want := mstPairs(pts)
		out = s.pairs(pts, out[:0])
		if len(out) != len(want) {
			t.Fatalf("trial %d: %d pairs, reference %d", trial, len(out), len(want))
		}
		for k := range want {
			if out[k] != want[k] {
				t.Fatalf("trial %d: pair %d is %v, reference %v", trial, k, out[k], want[k])
			}
		}
	}
}

// TestRouteECOChainedPairsExact runs a chain of edits — cell moves, a
// net inserted, a net removed — through RouteECO, each off the
// previous State, and checks after every step that each net's segments
// in the State are exactly mstPairs of its terminals, and that the
// stored terminals are the net's terminal gcells on the edited
// placement. Kept nets take their segments from the parent State, so
// this proves the reuse exact along a chain.
func TestRouteECOChainedPairsExact(t *testing.T) {
	t.Parallel()
	nl, pl, layout := ecoDesign(t, 40, 5)
	ctx := context.Background()
	_, st, err := RouteNetlistState(ctx, nl, pl, layout, ecoOpts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	kept := 0
	for step := 0; step < 12; step++ {
		nl2 := &place.Netlist{Widths: nl.Widths}
		pl2 := &place.Placement{Pos: append([]geom.Point(nil), pl.Pos...), Row: append([]int(nil), pl.Row...)}
		var oldNet []int
		switch step % 3 {
		case 1: // insert a net between two random cells, at the front
			nl2.Nets = append(nl2.Nets, place.Net{Cells: []int{rng.Intn(len(nl.Widths)), rng.Intn(len(nl.Widths))}})
			oldNet = append(oldNet, -1)
		case 2: // drop a random net
		}
		drop := -1
		if step%3 == 2 {
			drop = rng.Intn(len(nl.Nets))
		}
		for ni, n := range nl.Nets {
			if ni != drop {
				nl2.Nets = append(nl2.Nets, n)
				oldNet = append(oldNet, ni)
			}
		}
		for m := 0; m < 2; m++ {
			c := rng.Intn(len(pl2.Pos))
			p := geom.Pt(rng.Float64()*layout.Die.W(), rng.Float64()*layout.Die.H()).Add(layout.Die.Min)
			pl2.Pos[c] = p
			pl2.Row[c] = layout.RowOf(p.Y)
		}
		_, st2, err := RouteECO(ctx, st, nl2, pl2, oldNet)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkUsageMatchesPaths(t, st2)
		v, v2 := st.view(), st2.view()
		for ni := range nl2.Nets {
			terms := terminalCells(st2.grid, nl2, pl2, ni, nil)
			if !equalTerms(v2.netTerms[ni], terms) {
				t.Fatalf("step %d: net %d stores terminals %v, has %v", step, ni, v2.netTerms[ni], terms)
			}
			want := mstPairs(terms)
			got := v2.segsOfNet[ni]
			if len(got) != len(want) {
				t.Fatalf("step %d: net %d has %d segments, mstPairs gives %d", step, ni, len(got), len(want))
			}
			for k, si := range got {
				if sg := &v2.segs[si]; sg.net != ni || sg.a != want[k][0] || sg.b != want[k][1] {
					t.Fatalf("step %d: net %d segment %d is %v-%v (net %d), mstPairs gives %v-%v",
						step, ni, k, sg.a, sg.b, sg.net, want[k][0], want[k][1])
				}
			}
			if o := oldNet[ni]; o >= 0 && len(terms) >= 2 && equalTerms(v.netTerms[o], terms) {
				kept++
			}
		}
		nl, pl, st = nl2, pl2, st2
	}
	if kept == 0 {
		t.Fatal("no net kept its terminals along the chain; the reuse path was never exercised")
	}
}
