package place

import (
	"math/rand"
)

// fmProblem is one bipartitioning instance handed to the
// Fiduccia–Mattheyses refiner by the recursive bisector: a subset of
// cells, the nets touching them, and per-net external terminal counts
// from terminal propagation.
type fmProblem struct {
	cells  []int     // global cell indices in this region
	width  []float64 // width of each local cell
	nets   []fmNet
	ofCell [][]int32 // local cell -> incident local net indices
	// balance targets: each side's total width must stay within
	// [targetLo, targetHi].
	targetLo, targetHi float64
}

type fmNet struct {
	cells []int32 // local cell indices
	extA  int     // locked external terminals on side A
	extB  int
}

// fmResult is the partition: side[i] is false for A, true for B.
type fmResult struct {
	side    []bool
	cutNets int
}

// runFM refines an initial partition with gain-bucket FM passes.
// The initial side assignment must already satisfy the balance
// window; passes keep it there.
func runFM(p *fmProblem, side []bool, passes int, rng *rand.Rand) fmResult {
	n := len(p.cells)
	if n == 0 {
		return fmResult{side: side}
	}
	// Per-net side counts.
	cntA := make([]int, len(p.nets))
	cntB := make([]int, len(p.nets))
	recount := func() {
		for ni := range p.nets {
			a, b := p.nets[ni].extA, p.nets[ni].extB
			for _, c := range p.nets[ni].cells {
				if side[c] {
					b++
				} else {
					a++
				}
			}
			cntA[ni], cntB[ni] = a, b
		}
	}
	cut := func() int {
		c := 0
		for ni := range p.nets {
			if cntA[ni] > 0 && cntB[ni] > 0 {
				c++
			}
		}
		return c
	}
	widthA := func() float64 {
		w := 0.0
		for i, s := range side {
			if !s {
				w += p.width[i]
			}
		}
		return w
	}

	// Gain of moving local cell i to the other side.
	gainOf := func(i int) int {
		g := 0
		from, to := cntA, cntB
		if side[i] {
			from, to = cntB, cntA
		}
		for _, ni := range p.ofCell[i] {
			if from[ni] == 1 {
				g++
			}
			if to[ni] == 0 {
				g--
			}
		}
		return g
	}

	recount()
	bestCut := cut()
	bestSide := append([]bool(nil), side...)

	// Gain buckets. Max possible |gain| is the max cell degree.
	maxDeg := 1
	for i := range p.ofCell {
		if d := len(p.ofCell[i]); d > maxDeg {
			maxDeg = d
		}
	}

	gain := make([]int, n)
	locked := make([]bool, n)
	// touched[j] == stamp marks cells on a net whose side counts
	// crossed 0 or 1 in the current move.
	touched := make([]int32, n)
	var stamp int32
	// bucket[g+maxDeg] is a stack of cells with gain g.
	nBuckets := 2*maxDeg + 1
	bucket := make([][]int32, nBuckets)
	inBucket := make([]bool, n)

	for pass := 0; pass < passes; pass++ {
		// Initialize pass state.
		for i := range locked {
			locked[i] = false
		}
		for b := range bucket {
			bucket[b] = bucket[b][:0]
		}
		order := rng.Perm(n)
		for _, i := range order {
			gain[i] = gainOf(i)
			bucket[gain[i]+maxDeg] = append(bucket[gain[i]+maxDeg], int32(i))
			inBucket[i] = true
		}
		wA := widthA()
		curCut := cut()
		passBestCut := curCut
		passBestStep := -1
		type move struct{ cell int }
		var moves []move

		// Cells skipped for balance are parked in deferred and
		// re-inserted after the next successful move, when the width
		// split has shifted and they may fit.
		var deferred []int32
		popBest := func() int {
			for b := nBuckets - 1; b >= 0; b-- {
				lst := bucket[b]
				for len(lst) > 0 {
					i := int(lst[len(lst)-1])
					lst = lst[:len(lst)-1]
					bucket[b] = lst
					if locked[i] || !inBucket[i] || gain[i]+maxDeg != b {
						continue
					}
					// Balance check.
					var nwA float64
					if side[i] {
						nwA = wA + p.width[i]
					} else {
						nwA = wA - p.width[i]
					}
					if nwA < p.targetLo || nwA > p.targetHi {
						deferred = append(deferred, int32(i))
						continue
					}
					inBucket[i] = false
					return i
				}
				bucket[b] = lst
			}
			return -1
		}
		// requeue appends a cell under its current gain; stale bucket
		// entries are filtered in popBest by the gain check.
		requeue := func(j int) {
			inBucket[j] = true
			bucket[gain[j]+maxDeg] = append(bucket[gain[j]+maxDeg], int32(j))
		}

		for step := 0; step < n; step++ {
			i := popBest()
			if i < 0 {
				break
			}
			// Apply the move.
			curCut -= gain[i]
			fromB := side[i]
			if fromB {
				wA += p.width[i]
			} else {
				wA -= p.width[i]
			}
			side[i] = !side[i]
			locked[i] = true
			moves = append(moves, move{cell: i})
			// Update net counts and neighbor gains. gainOf reads only
			// whether a net's side counts are 0 or 1, so only cells on
			// a net whose counts pass through that range can change
			// gain. The scan skips the others; its order, and so every
			// requeue, is unchanged.
			stamp++
			for _, ni := range p.ofCell[i] {
				from, to := cntA, cntB
				if fromB {
					from, to = cntB, cntA
				}
				from[ni]--
				to[ni]++
				if from[ni] <= 1 || to[ni] <= 2 {
					for _, j := range p.nets[ni].cells {
						touched[j] = stamp
					}
				}
			}
			for _, ni := range p.ofCell[i] {
				for _, j32 := range p.nets[ni].cells {
					j := int(j32)
					if locked[j] || touched[j] != stamp {
						continue
					}
					ng := gainOf(j)
					if ng != gain[j] {
						gain[j] = ng
						requeue(j)
					}
				}
			}
			if curCut < passBestCut {
				passBestCut = curCut
				passBestStep = len(moves) - 1
			}
			// Give balance-deferred cells another chance now that the
			// width split moved.
			for _, j32 := range deferred {
				j := int(j32)
				if !locked[j] {
					requeue(j)
				}
			}
			deferred = deferred[:0]
		}
		// Roll back moves after the best prefix.
		for s := len(moves) - 1; s > passBestStep; s-- {
			i := moves[s].cell
			side[i] = !side[i]
		}
		recount()
		if got := cut(); got < bestCut {
			bestCut = got
			copy(bestSide, side)
		} else {
			// No improvement this pass: restore best and stop.
			copy(side, bestSide)
			recount()
			break
		}
	}
	copy(side, bestSide)
	return fmResult{side: side, cutNets: bestCut}
}
