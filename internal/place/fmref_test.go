package place

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// runFMReference is runFM as it was before its passes tracked the
// highest non-empty bucket, stopped once decided and kept their side
// counts across the rollback: every pop scans from the top bucket,
// every pass runs until no cell can move, gains start cell by cell and
// the counts are recounted after every pass. It is the oracle
// TestRunFMMatchesReference holds runFM to.
func runFMReference(p *fmProblem, side []bool, passes int, rng *rand.Rand, s *fmScratch) fmResult {
	n := len(p.width)
	if n == 0 {
		return fmResult{side: side}
	}
	// Per-net side counts.
	s.cntA = grow(s.cntA, len(p.nets))
	s.cntB = grow(s.cntB, len(p.nets))
	cntA, cntB := s.cntA, s.cntB
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
		for i, b := range side {
			if !b {
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
		for _, ni := range p.netsOf(i) {
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
	s.bestSide = append(s.bestSide[:0], side...)
	bestSide := s.bestSide

	// Gain buckets. Max possible |gain| is the max cell degree.
	maxDeg := 1
	for i := 0; i < n; i++ {
		if d := int(p.ofStart[i+1] - p.ofStart[i]); d > maxDeg {
			maxDeg = d
		}
	}

	s.gain = grow(s.gain, n)
	s.locked = grow(s.locked, n)
	s.inBucket = grow(s.inBucket, n)
	gain, locked, inBucket := s.gain, s.locked, s.inBucket
	// touched[j] == stamp marks cells on a net whose side counts
	// crossed 0 or 1 in the current move, and netMark[ni] == stamp the
	// moved cell's nets. Entries left by earlier calls hold smaller
	// stamps.
	s.touched = grow(s.touched, n)
	touched := s.touched
	s.netMark = grow(s.netMark, len(p.nets))
	netMark := s.netMark
	// bucket[g+maxDeg] is a stack of cells with gain g.
	nBuckets := 2*maxDeg + 1
	for len(s.bucket) < nBuckets {
		s.bucket = append(s.bucket, nil)
	}
	bucket := s.bucket[:nBuckets]

	for pass := 0; pass < passes; pass++ {
		// Initialize pass state.
		clear(locked)
		for b := range bucket {
			bucket[b] = bucket[b][:0]
		}
		s.order = perm(rng, grow(s.order, n))
		for _, i := range s.order {
			gain[i] = gainOf(i)
			bucket[gain[i]+maxDeg] = append(bucket[gain[i]+maxDeg], int32(i))
			inBucket[i] = true
		}
		wA := widthA()
		curCut := cut()
		passBestCut := curCut
		passBestStep := -1
		moves := s.moves[:0]

		// Cells skipped for balance are parked in deferred and
		// re-inserted after the next successful move, when the width
		// split has shifted and they may fit.
		deferred := s.deferred[:0]
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
			moves = append(moves, i)
			// Update net counts and neighbor gains. gainOf reads only
			// whether a net's side counts are 0 or 1, so only cells on
			// a net whose counts pass through that range can change
			// gain: those are the candidates, collected as the counts
			// move. A changed cell is requeued where a scan of every
			// cell of the moved cell's nets, in net order, would first
			// meet it: its first listing on one of those nets, the
			// smallest such position since its listings ascend.
			if s.stamp == math.MaxInt32 {
				clear(touched[:cap(touched)])
				clear(netMark[:cap(netMark)])
				s.stamp = 0
			}
			s.stamp++
			stamp := s.stamp
			cand := s.cand[:0]
			for _, ni := range p.netsOf(i) {
				netMark[ni] = stamp
				from, to := cntA, cntB
				if fromB {
					from, to = cntB, cntA
				}
				from[ni]--
				to[ni]++
				if from[ni] <= 1 || to[ni] <= 2 {
					for _, j := range p.nets[ni].cells {
						if touched[j] != stamp {
							touched[j] = stamp
							cand = append(cand, j)
						}
					}
				}
			}
			// requeued packs (first listing, cell) as listing·n + cell.
			requeued := s.requeued[:0]
			for _, j32 := range cand {
				j := int(j32)
				if locked[j] {
					continue
				}
				ng := gainOf(j)
				if ng == gain[j] {
					continue
				}
				gain[j] = ng
				for k := p.ofStart[j]; k < p.ofStart[j+1]; k++ {
					if netMark[p.ofNets[k]] == stamp {
						requeued = append(requeued, int64(p.ofPos[k])*int64(n)+int64(j))
						break
					}
				}
			}
			slices.Sort(requeued)
			for _, key := range requeued {
				requeue(int(key % int64(n)))
			}
			s.cand, s.requeued = cand, requeued
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
		s.moves, s.deferred = moves, deferred
		// Roll back moves after the best prefix.
		for k := len(moves) - 1; k > passBestStep; k-- {
			i := moves[k]
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

// fillSparseFMProblem refills p with a seeded random instance of n
// cells on n nets of 1–3 cells, half of them held on both sides by
// external terminals. Such nets stay cut whatever FM moves, so a pass
// often ends with every cut net decided, the case runFM's early stop
// must get exactly right.
func fillSparseFMProblem(p *fmProblem, n int, rng *rand.Rand) {
	p.width = grow(p.width, n)
	for i := range p.width {
		p.width[i] = float64(1 + rng.Intn(3))
	}
	p.nets = p.nets[:0]
	for k := 0; k < n; k++ {
		f := fmNet{extA: rng.Intn(3) / 2, extB: rng.Intn(3) / 2}
		if rng.Intn(2) == 0 {
			f.extA, f.extB = 1+rng.Intn(2), 1+rng.Intn(2)
		}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			f.cells = append(f.cells, int32(rng.Intn(n)))
		}
		p.nets = append(p.nets, f)
	}
	p.linkCells()
}

// TestRunFMMatchesReference holds runFM to runFMReference over random
// problems: dense ones with external terminals on either or both sides
// of many nets and, in every third, a high-degree cell; sparse ones of
// at most 40 cells whose nets are often decided from the start; balance
// windows from loose to 1% of the total width; up to 8 passes. Sides
// and cut must be identical.
func TestRunFMMatchesReference(t *testing.T) {
	t.Parallel()
	var p fmProblem
	var s, sRef fmScratch
	moved := 0
	const trials = 1200
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var n int
		if trial%2 == 0 {
			n = 3 + rng.Intn(38)
			fillSparseFMProblem(&p, n, rng)
		} else {
			n = 8 + rng.Intn(300)
			fillFMProblem(&p, n, trial%3 == 0, rng)
			for ni := range p.nets {
				if rng.Intn(2) == 0 {
					p.nets[ni].extA, p.nets[ni].extB = rng.Intn(3), rng.Intn(3)
				}
			}
		}
		total := 0.0
		for _, w := range p.width {
			total += w
		}
		slack := []float64{0.3, 0.2, 0.05, 0.01}[trial/2%4] * total
		p.targetLo, p.targetHi = total/2-slack, total/2+slack
		initial := make([]bool, n)
		acc := 0.0
		for i := range initial {
			initial[i] = acc >= total/2
			acc += p.width[i]
		}
		passes := 1 + rng.Intn(8)
		seed := rng.Int63()
		side, sideRef := slices.Clone(initial), slices.Clone(initial)
		got := runFM(&p, side, passes, rand.New(rand.NewSource(seed)), &s)
		want := runFMReference(&p, sideRef, passes, rand.New(rand.NewSource(seed)), &sRef)
		if got.cutNets != want.cutNets || !slices.Equal(side, sideRef) {
			t.Fatalf("trial %d (n=%d, passes %d): cut %d, reference %d (sides equal: %v)",
				trial, n, passes, got.cutNets, want.cutNets, slices.Equal(side, sideRef))
		}
		if !slices.Equal(side, initial) {
			moved++
		}
	}
	if moved < trials/2 {
		t.Errorf("FM moved cells in only %d of %d trials; the comparison is mostly vacuous", moved, trials)
	}
}
