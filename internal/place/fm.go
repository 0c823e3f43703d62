package place

import (
	"math"
	"math/rand"
	"slices"
)

// fmProblem is one bipartitioning instance handed to the
// Fiduccia–Mattheyses refiner by the recursive bisector: the widths of
// a subset of cells, the nets touching them, and per-net external
// terminal counts from terminal propagation. The bisector keeps one
// fmProblem and refills its buffers for every region.
type fmProblem struct {
	width []float64 // width of each local cell; its length is the cell count
	nets  []fmNet
	// ofStart/ofNets index local cell -> incident local nets in CSR
	// form: cell i's nets are ofNets[ofStart[i]:ofStart[i+1]]. ofPos
	// holds, beside each, the listing's position in the nets' cell
	// lists laid end to end: net order first, then the position on
	// the net. Built by linkCells.
	ofStart []int32
	ofNets  []int32
	ofPos   []int32
	// balance targets: each side's total width must stay within
	// [targetLo, targetHi].
	targetLo, targetHi float64
}

type fmNet struct {
	cells []int32 // local cell indices
	extA  int     // locked external terminals on side A
	extB  int
}

// linkCells rebuilds the cell -> net index from p.nets, reusing p's
// buffers. A cell's nets are listed in ascending order, once per
// listing of the cell on the net, so its listings' positions ascend
// too.
func (p *fmProblem) linkCells() {
	n := len(p.width)
	p.ofStart = grow(p.ofStart, n+1)
	clear(p.ofStart)
	for ni := range p.nets {
		for _, c := range p.nets[ni].cells {
			p.ofStart[c+1]++
		}
	}
	for i := 1; i <= n; i++ {
		p.ofStart[i] += p.ofStart[i-1]
	}
	p.ofNets = grow(p.ofNets, int(p.ofStart[n]))
	p.ofPos = grow(p.ofPos, int(p.ofStart[n]))
	// Fill with ofStart[c] as cell c's cursor, which leaves it at the
	// start of cell c+1; shift back afterwards.
	pos := int32(0)
	for ni := range p.nets {
		for _, c := range p.nets[ni].cells {
			p.ofNets[p.ofStart[c]] = int32(ni)
			p.ofPos[p.ofStart[c]] = pos
			p.ofStart[c]++
			pos++
		}
	}
	copy(p.ofStart[1:], p.ofStart[:n])
	p.ofStart[0] = 0
}

// netsOf returns local cell i's incident nets.
func (p *fmProblem) netsOf(i int) []int32 {
	return p.ofNets[p.ofStart[i]:p.ofStart[i+1]]
}

// fmResult is the partition: side[i] is false for A, true for B.
type fmResult struct {
	side    []bool
	cutNets int
}

// fmScratch is runFM's working memory, reused across calls so a
// bisection allocates it once rather than per region. runFM
// reinitialises every buffer before reading it, except touched, which
// is guarded by a stamp that keeps counting across calls.
type fmScratch struct {
	cntA, cntB []int
	gain       []int
	locked     []bool
	inBucket   []bool
	bestSide   []bool
	touched    []int32
	netMark    []int32
	stamp      int32
	cand       []int32
	requeued   []int64
	bucket     [][]int32
	fixA, fixB []int32
	order      []int
	moves      []int
	deferred   []int32
}

// grow returns buf resized to n, reusing its array when it is large
// enough. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// perm fills buf with the permutation rng.Perm(len(buf)) returns,
// drawing the same values from rng, and returns buf.
func perm(rng *rand.Rand, buf []int) []int {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// runFM refines an initial partition with gain-bucket FM passes.
// The initial side assignment must already satisfy the balance
// window; passes keep it there. p's cell index must be linked
// (linkCells). The result is independent of what s held before.
func runFM(p *fmProblem, side []bool, passes int, rng *rand.Rand, s *fmScratch) fmResult {
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
	// fixA[ni] and fixB[ni] count net ni's pins on each side that
	// cannot move again in this pass: its locked cells' listings and
	// its external terminals.
	s.fixA = grow(s.fixA, len(p.nets))
	s.fixB = grow(s.fixB, len(p.nets))
	fixA, fixB := s.fixA, s.fixB

	for pass := 0; pass < passes; pass++ {
		// Initialize pass state.
		clear(locked)
		for b := range bucket {
			bucket[b] = bucket[b][:0]
		}
		// top is the highest bucket that may hold entries; every bucket
		// above it is empty.
		top := 0
		s.order = perm(rng, grow(s.order, n))
		// Every gain, net by net: the sum gainOf takes over a cell's
		// listings, taken over each net's listings instead. A net adds
		// the same to every listing on one side, nothing to most.
		clear(gain)
		for ni := range p.nets {
			a, b := cntA[ni], cntB[ni]
			gA, gB := oneIf(a == 1)-oneIf(b == 0), oneIf(b == 1)-oneIf(a == 0)
			if gA == 0 && gB == 0 {
				continue
			}
			for _, c := range p.nets[ni].cells {
				if side[c] {
					gain[c] += gB
				} else {
					gain[c] += gA
				}
			}
		}
		for _, i := range s.order {
			b := gain[i] + maxDeg
			bucket[b] = append(bucket[b], int32(i))
			top = max(top, b)
			inBucket[i] = true
		}
		// dead counts the nets with fixed pins on both sides: they
		// stay cut whatever the rest of the pass moves, so no later
		// prefix cuts fewer than dead nets.
		dead := 0
		for ni := range p.nets {
			fixA[ni], fixB[ni] = int32(p.nets[ni].extA), int32(p.nets[ni].extB)
			if fixA[ni] > 0 && fixB[ni] > 0 {
				dead++
			}
		}
		wA := widthA()
		// The pass starts from the best sides found so far.
		curCut := bestCut
		passBestCut := curCut
		passBestStep := -1
		moves := s.moves[:0]

		// Cells skipped for balance are parked in deferred and
		// re-inserted after the next successful move, when the width
		// split has shifted and they may fit.
		deferred := s.deferred[:0]
		popBest := func() int {
			for b := top; b >= 0; b-- {
				top = b
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
			b := gain[j] + maxDeg
			bucket[b] = append(bucket[b], int32(j))
			top = max(top, b)
		}

		for step := 0; step < n; step++ {
			// Once dead reaches the pass's best cut, no later prefix
			// can beat it, and the rollback discards every later move.
			// curCut never reads below the true cut: gainOf is exact
			// for a cell listed once on a net and can only undercount
			// for one listed more often.
			if dead >= passBestCut {
				break
			}
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
			fixTo, fixOther := fixB, fixA
			if fromB {
				fixTo, fixOther = fixA, fixB
			}
			for _, ni := range p.netsOf(i) {
				netMark[ni] = stamp
				from, to := cntA, cntB
				if fromB {
					from, to = cntB, cntA
				}
				from[ni]--
				to[ni]++
				if fixTo[ni]++; fixTo[ni] == 1 && fixOther[ni] > 0 {
					dead++
				}
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
		// Roll back moves after the best prefix, and their nets' side
		// counts with them.
		for k := len(moves) - 1; k > passBestStep; k-- {
			i := moves[k]
			from, to := cntA, cntB
			if side[i] {
				from, to = cntB, cntA
			}
			for _, ni := range p.netsOf(i) {
				from[ni]--
				to[ni]++
			}
			side[i] = !side[i]
		}
		if got := cut(); got < bestCut {
			bestCut = got
			copy(bestSide, side)
		} else {
			// No improvement this pass: restore best and stop. The
			// side counts are not read again.
			copy(side, bestSide)
			break
		}
	}
	copy(side, bestSide)
	return fmResult{side: side, cutNets: bestCut}
}

// oneIf is 1 when b holds, else 0.
func oneIf(b bool) int {
	if b {
		return 1
	}
	return 0
}
