package route

import (
	"slices"

	"casyn/internal/place"
)

// State captures a completed routing for incremental reuse: the
// settled grid (usage and negotiation history), every segment's
// endpoints, final path, length and failure flag, the per-net terminal
// gcells the next routing is diffed against, and the netlist and cell
// gcells they were derived from.
//
// Segments and nets carry stable IDs that survive an edit, so a
// successor keys its data exactly as its parent did: per-segment data
// by segment ID, per-net data by net ID, each held in fixed-size
// copy-on-write chunks (cow). A successor shares every chunk its edit
// does not write and copies only the chunks holding the ripped nets'
// fresh segments and records and the segments whose failure flag
// changed. What it allocates whole is O(nets + segments) of small
// integers: the canonical order as segment IDs and the net-ID map.
// A State references no other State, and no chunk is a window into
// another State's arrays, so a chain that keeps only its latest State
// retains the chunks that State can reach and nothing more.
type State struct {
	layout place.Layout
	opts   Options // defaulted
	grid   *Grid
	// order is the canonical segment order (decompose's): the ID of the
	// segment at each slot.
	order []int32
	// netID[ni] is net ni's stable ID.
	netID []int32
	// segs, segLen and failed are keyed by segment ID: endpoints, net
	// and path; the routed length (µm) summed in path order; and
	// whether the path crosses an over-capacity edge of grid — what
	// collectResult derives per segment.
	segs   cow[segRec]
	segLen cow[float64]
	failed cow[bool]
	// nets is keyed by net ID.
	nets cow[netRec]
	// segIDs and netIDs bound the ID spaces; freeSegs and freeNets list
	// the IDs below them that no live segment or net holds, reused
	// before the spaces grow, so they stay as large as the most
	// segments and nets a chain ever held at once.
	segIDs, netIDs     int32
	freeSegs, freeNets []int32
	// nl is the routed netlist (not to be mutated afterwards), and
	// cellGCell[c] the gcell index (y*NX + x) cell c was placed in.
	nl        *place.Netlist
	cellGCell []int32
	res       *Result
}

// segRec is one segment: its endpoint gcells, the stable ID of its net
// and its routed path.
type segRec struct {
	a, b [2]int32
	net  int32
	path []edge
}

// length is the segment's Manhattan length in gcells, the canonical
// order's key.
func (s *segRec) length() int {
	return abs(int(s.a[0]-s.b[0])) + abs(int(s.a[1]-s.b[1]))
}

// netRec is one net: its deduped terminal gcells and its segments' IDs
// in spanning-tree order (mstScratch.pairs).
type netRec struct {
	terms [][2]int
	segs  []int32
}

// chunkBits sets the copy-on-write granularity: a chunk holds
// 1<<chunkBits entries.
const (
	chunkBits = 6
	chunkLen  = 1 << chunkBits
)

// cow is an array of T indexed by stable ID and held in fixed-size
// chunks. A chunk is immutable once the State holding it is returned:
// a successor clones the chunk table and copies a chunk before its
// first write to it (cowEdit), so concurrent successors of one State
// share its chunks safely.
type cow[T any] struct {
	chunks []*[chunkLen]T
}

// cowOf returns a cow with the chunk table for n entries and no chunk
// made yet.
func cowOf[T any](n int) cow[T] {
	return cow[T]{chunks: make([]*[chunkLen]T, (n+chunkLen-1)/chunkLen)}
}

// at returns the entry at id for reading.
func (c cow[T]) at(id int32) *T { return &c.chunks[id>>chunkBits][id&(chunkLen-1)] }

// cowEdit is a successor's cow while its RouteECO runs: it writes only
// chunks it owns, and owns a chunk once it has copied or made it.
type cowEdit[T any] struct {
	cow[T]
	own []bool
}

// edit starts a successor that shares every chunk of c.
func (c cow[T]) edit() cowEdit[T] {
	return cowEdit[T]{cow: cow[T]{chunks: slices.Clone(c.chunks)}, own: make([]bool, len(c.chunks))}
}

// set stores v at id, copying its chunk first unless e owns it, and
// growing the table when id lies past it.
func (e *cowEdit[T]) set(id int32, v T) {
	ci := int(id >> chunkBits)
	for ci >= len(e.chunks) {
		e.chunks = append(e.chunks, new([chunkLen]T))
		e.own = append(e.own, true)
	}
	if !e.own[ci] {
		ch := new([chunkLen]T)
		*ch = *e.chunks[ci]
		e.chunks[ci] = ch
		e.own[ci] = true
	}
	e.chunks[ci][id&(chunkLen-1)] = v
}

// newState stores a from-scratch routing: segs in canonical order,
// with segsOfNet, terms, segLen and failed as RouteNetlistState
// derives them. Segment IDs are the canonical slots and net IDs the net
// indices. Each net's record keeps its terms and segsOfNet slices as
// they are: decompose makes them windows of per-block arrays, which no
// successor writes. Chunks are disjoint, so they are made and filled in
// blocks on opts.Workers.
func newState(layout place.Layout, opts Options, g *Grid, segs []twoPin, segsOfNet [][]int32, terms [][][2]int,
	segLen []float64, failed []bool, nl *place.Netlist, cellGCell []int32, res *Result) *State {
	n, nn := len(segs), len(terms)
	st := &State{layout: layout, opts: opts, grid: g, order: make([]int32, n), netID: make([]int32, nn),
		segs: cowOf[segRec](n), segLen: cowOf[float64](n), failed: cowOf[bool](n), nets: cowOf[netRec](nn),
		segIDs: int32(n), netIDs: int32(nn), nl: nl, cellGCell: cellGCell, res: res}
	const chunkBlock = segBlock / chunkLen
	finishBlocks(opts.Workers, len(st.segs.chunks), chunkBlock, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			sc, lc, fc := new([chunkLen]segRec), new([chunkLen]float64), new([chunkLen]bool)
			st.segs.chunks[ci], st.segLen.chunks[ci], st.failed.chunks[ci] = sc, lc, fc
			base := ci * chunkLen
			copy(lc[:], segLen[base:])
			copy(fc[:], failed[base:])
			for k := range min(chunkLen, n-base) {
				sg := &segs[base+k]
				st.order[base+k] = int32(base + k)
				sc[k] = segRec{
					a:    [2]int32{int32(sg.a[0]), int32(sg.a[1])},
					b:    [2]int32{int32(sg.b[0]), int32(sg.b[1])},
					net:  int32(sg.net),
					path: sg.path,
				}
			}
		}
	})
	finishBlocks(opts.Workers, len(st.nets.chunks), chunkBlock, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			ch := new([chunkLen]netRec)
			st.nets.chunks[ci] = ch
			base := ci * chunkLen
			for ni := base; ni < min(base+chunkLen, nn); ni++ {
				st.netID[ni] = int32(ni)
				ch[ni-base] = netRec{terms: terms[ni], segs: segsOfNet[ni]}
			}
		}
	})
	return st
}
