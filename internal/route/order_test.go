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
			want := mstPairs(st2.grid, terms)
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
