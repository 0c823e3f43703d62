package partition

// Direct k-way partitioning of the tree forest with a Steiner-tree cut
// metric, plus driver replication across the cut.
//
// The paper's PDP forest is built for one die. For a multi-die (or
// multi-region) workload the forest's trees must additionally be
// assigned to k die regions so that few nets cross regions and the
// crossing nets are short. Rather than recursive bisection of the
// assignment, KWay performs direct k-way FM-style gain moves over the
// tree-forest hypergraph: every tree is a movable vertex, every
// driver's net is a hyperedge over the trees it touches (plus fixed
// PI/PO pad regions), and a cut net is scored by a rectilinear
// Steiner-tree estimate over the centers of the regions it spans —
// the routed-wire proxy the direct k-way literature optimizes, rather
// than raw cut count.
//
// On top of the moves, replication: when a multi-fanout driver's
// duplication into a second region removes at least one cut net,
// strictly lowers the Steiner estimate, and fits the area budget, the
// gate is cloned in the subject DAG (subject.AddReplicaOf), the
// second region's sinks are rewired onto the clone, and the clone
// becomes a new single-gate tree of the forest assigned to that
// region. Primary outputs always stay on the original gate.
//
// Determinism: vertices are visited in ascending root order, regions
// in ascending index, and every tie breaks toward the lower index, so
// the result is byte-identical across runs and worker counts. A run
// with MovePasses < 0 and Replicate false returns the input DAG,
// forest, and placement unchanged (pointer-identical) — the
// bit-identity anchor the regression suite pins.

import (
	"fmt"
	"sort"

	"casyn/internal/geom"
	"casyn/internal/subject"
)

// KWayOptions configures KWay.
type KWayOptions struct {
	// K is the number of die regions (>= 2).
	K int
	// Die is the die rectangle the regions tile.
	Die geom.Rect
	// Pos is the placement position per gate ID.
	Pos []geom.Point
	// POPads gives fixed output-pad locations per driver gate.
	POPads map[int][]geom.Point
	// BalanceTol is the per-region area slack over perfect balance a
	// move may fill (default 0.15: no region exceeds
	// ceil(total/k)·1.15 tree gates).
	BalanceTol float64
	// MovePasses bounds the FM move passes (default 3). A negative
	// value runs zero passes — with Replicate false the input forest
	// is returned bit-identical.
	MovePasses int
	// Replicate enables driver replication across the cut.
	Replicate bool
	// ReplicaAreaBudget caps total replicated gates as a fraction of
	// the tree-gate count (default 0.05).
	ReplicaAreaBudget float64
}

func (o *KWayOptions) defaults() {
	if o.BalanceTol == 0 {
		o.BalanceTol = 0.15
	}
	if o.MovePasses == 0 {
		o.MovePasses = 3
	}
	if o.ReplicaAreaBudget == 0 {
		o.ReplicaAreaBudget = 0.05
	}
}

// KWayResult is the outcome of a direct k-way partitioning run.
type KWayResult struct {
	// DAG is the subject DAG the returned forest partitions: the input
	// DAG itself when no replication happened, else a private clone
	// carrying the replica gates (the input is never mutated).
	DAG *subject.DAG
	// Forest is the partition forest over DAG. Without replication it
	// is the input forest (pointer-identical on a zero-move run).
	Forest *Forest
	// Pos is the placement, extended with replica positions (each
	// replica sits at the center of mass of the sinks it absorbed).
	Pos []geom.Point
	// Regions are the k die regions, from recursive bisection of Die.
	Regions []geom.Rect
	// RegionOf maps every gate of DAG to its region (-1 for PIs,
	// constants, and dead gates).
	RegionOf []int
	// CutNetsSeed/SteinerSeed are the cut-net count and total Steiner
	// cost of the seed assignment (the recursive-bisection baseline);
	// CutNets/Steiner the same after moves and replication.
	CutNetsSeed, CutNets int
	SteinerSeed, Steiner float64
	// Moves counts applied vertex moves; Replicas counts replica gates.
	Moves, Replicas int
}

// DieRegions tiles the die into k rectangles by recursive bisection:
// the region count splits ceil/floor, the longer side splits
// proportionally. Deterministic; region order is the recursion's
// left-before-right (bottom-before-top) order.
func DieRegions(die geom.Rect, k int) []geom.Rect {
	if k <= 1 {
		return []geom.Rect{die}
	}
	k1 := (k + 1) / 2
	frac := float64(k1) / float64(k)
	var a, b geom.Rect
	if die.W() >= die.H() {
		cut := die.Min.X + frac*die.W()
		a = geom.Rect{Min: die.Min, Max: geom.Pt(cut, die.Max.Y)}
		b = geom.Rect{Min: geom.Pt(cut, die.Min.Y), Max: die.Max}
	} else {
		cut := die.Min.Y + frac*die.H()
		a = geom.Rect{Min: die.Min, Max: geom.Pt(die.Max.X, cut)}
		b = geom.Rect{Min: geom.Pt(die.Min.X, cut), Max: die.Max}
	}
	return append(DieRegions(a, k1), DieRegions(b, k-k1)...)
}

// kNet is one hyperedge of the tree-forest hypergraph: the net driven
// by one live tree gate. Pins are the movable tree vertices it touches
// (driver's tree plus every sink's tree) and the fixed regions of the
// driver's output pads.
type kNet struct {
	driver    int
	vertices  []int32 // movable tree-vertex pins, dedup ascending
	sinkGates []int32 // fanout sink gate IDs (for replication rewiring)
	fixed     []int32 // fixed region pins, dedup ascending
}

// kwayState is the mutable model a KWay run works on.
type kwayState struct {
	opt      KWayOptions
	regions  []geom.Rect
	centers  []geom.Point
	vertexOf []int // gate -> vertex (tree) index, -1
	area     []int // per vertex, in tree gates
	assign   []int // per vertex region
	roots    []int // per vertex root gate (visit order)
	nets     []kNet
	netOf    []int32   // driver gate -> net index, -1
	incident [][]int32 // vertex -> incident net indices
	regArea  []int
	areaCap  int
	seen     []bool // region scratch, len k
	spanBuf  []int32
	ptsBuf   []geom.Point
}

// KWay runs direct k-way partitioning (and optional replication) of
// the forest over the subject DAG. The inputs are never mutated; see
// KWayResult for what is shared vs. cloned.
func KWay(d *subject.DAG, f *Forest, opt KWayOptions) (*KWayResult, error) {
	opt.defaults()
	if d == nil || f == nil {
		return nil, fmt.Errorf("partition: KWay needs a DAG and a forest")
	}
	if opt.K < 2 {
		return nil, fmt.Errorf("partition: KWay needs K >= 2 regions (got %d)", opt.K)
	}
	if opt.Die.W() <= 0 || opt.Die.H() <= 0 {
		return nil, fmt.Errorf("partition: KWay needs a non-degenerate die, got %v", opt.Die)
	}
	if len(opt.Pos) < d.NumGates() {
		return nil, fmt.Errorf("partition: KWay needs positions for all %d gates, got %d",
			d.NumGates(), len(opt.Pos))
	}

	s := &kwayState{opt: opt, regions: DieRegions(opt.Die, opt.K)}
	s.centers = make([]geom.Point, len(s.regions))
	for i, r := range s.regions {
		s.centers[i] = r.Center()
	}
	s.seed(d, f)
	s.buildNets(d, f)

	res := &KWayResult{
		DAG:     d,
		Forest:  f,
		Pos:     opt.Pos,
		Regions: s.regions,
	}
	res.CutNetsSeed, res.SteinerSeed = s.totals()

	passes := opt.MovePasses
	if passes < 0 {
		passes = 0
	}
	for pass := 0; pass < passes; pass++ {
		if s.movePass(res) == 0 {
			break
		}
	}

	if opt.Replicate {
		if err := s.replicate(d, f, res); err != nil {
			return nil, err
		}
	}

	res.CutNets, res.Steiner = s.totals()
	res.RegionOf = s.regionOfGates(res.DAG, res.Forest)
	return res, nil
}

// regionOfPoint returns the first region containing p, falling back to
// the nearest region center for points outside every region (pads sit
// on the die boundary, which Contains covers; the fallback is for
// out-of-die coordinates).
func (s *kwayState) regionOfPoint(p geom.Point) int {
	for i, r := range s.regions {
		if r.Contains(p) {
			return i
		}
	}
	best, bestD := 0, -1.0
	for i, c := range s.centers {
		if dd := p.Manhattan(c); bestD < 0 || dd < bestD {
			best, bestD = i, dd
		}
	}
	return best
}

// seed assigns every tree to the region containing its center of mass
// — the recursive-bisection baseline a zero-move run reproduces.
func (s *kwayState) seed(d *subject.DAG, f *Forest) {
	trees := f.Trees()
	s.vertexOf = make([]int, d.NumGates())
	for g := range s.vertexOf {
		s.vertexOf[g] = -1
	}
	s.area = make([]int, len(trees))
	s.assign = make([]int, len(trees))
	s.roots = make([]int, len(trees))
	s.regArea = make([]int, len(s.regions))
	total := 0
	for ti := range trees {
		t := &trees[ti]
		s.roots[ti] = t.Root
		s.area[ti] = len(t.Gates)
		total += len(t.Gates)
		pts := s.ptsBuf[:0]
		for _, g := range t.Gates {
			s.vertexOf[g] = ti
			pts = append(pts, s.opt.Pos[g])
		}
		s.ptsBuf = pts
		s.assign[ti] = s.regionOfPoint(geom.CenterOfMass(pts))
		s.regArea[s.assign[ti]] += len(t.Gates)
	}
	perRegion := (total + len(s.regions) - 1) / len(s.regions)
	s.areaCap = perRegion + int(float64(perRegion)*s.opt.BalanceTol)
	s.seen = make([]bool, len(s.regions))
}

// buildNets models one hyperedge per live tree-gate driver. Trivial
// (single-vertex, pad-free) nets are modeled too: replication extends
// a replica's fanin nets with a new pin, and that extension must be
// scored even when the net was uncut before.
func (s *kwayState) buildNets(d *subject.DAG, f *Forest) {
	live := d.LiveGates()
	isLive := liveSet(d, live)
	s.netOf = make([]int32, d.NumGates())
	for g := range s.netOf {
		s.netOf[g] = -1
	}
	s.incident = make([][]int32, len(s.area))
	for _, g := range live {
		if s.vertexOf[g] < 0 {
			continue // PI/const drivers: pad-anchored, not movable
		}
		n := kNet{driver: g}
		n.vertices = append(n.vertices, int32(s.vertexOf[g]))
		for _, fo := range d.Fanouts(g) {
			if !isLive[fo] || s.vertexOf[fo] < 0 {
				continue
			}
			n.sinkGates = append(n.sinkGates, int32(fo))
			n.vertices = append(n.vertices, int32(s.vertexOf[fo]))
		}
		for _, pad := range s.opt.POPads[g] {
			n.fixed = append(n.fixed, int32(s.regionOfPoint(pad)))
		}
		n.vertices = dedupInt32(n.vertices)
		n.fixed = dedupInt32(n.fixed)
		ni := int32(len(s.nets))
		s.netOf[g] = ni
		s.nets = append(s.nets, n)
		for _, v := range s.nets[ni].vertices {
			s.incident[v] = append(s.incident[v], ni)
		}
	}
}

func dedupInt32(xs []int32) []int32 {
	if len(xs) < 2 {
		return xs
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// netCost returns the net's cut flag and Steiner cost under the
// current assignment, with vertex `movedV` (when >= 0) evaluated at
// region `movedR` instead, and with the pin set additionally spanning
// region `extra` when extra >= 0 (a prospective replica pin scored
// before its vertex exists).
func (s *kwayState) netCost(n *kNet, movedV, movedR, extra int) (bool, float64) {
	span := s.spanBuf[:0]
	add := func(r int32) {
		if !s.seen[r] {
			s.seen[r] = true
			span = append(span, r)
		}
	}
	for _, v := range n.vertices {
		r := s.assign[v]
		if int(v) == movedV {
			r = movedR
		}
		add(int32(r))
	}
	for _, r := range n.fixed {
		add(r)
	}
	if extra >= 0 {
		add(int32(extra))
	}
	for _, r := range span {
		s.seen[r] = false
	}
	s.spanBuf = span
	if len(span) < 2 {
		return false, 0
	}
	pts := s.ptsBuf[:0]
	for _, r := range span {
		pts = append(pts, s.centers[r])
	}
	s.ptsBuf = pts
	return true, geom.SteinerLength(pts)
}

// totals sums cut nets and Steiner cost over all nets.
func (s *kwayState) totals() (int, float64) {
	cut, st := 0, 0.0
	for i := range s.nets {
		c, l := s.netCost(&s.nets[i], -1, -1, -1)
		if c {
			cut++
			st += l
		}
	}
	return cut, st
}

// movePass runs one deterministic FM-style pass: vertices in ascending
// root order, each taking its best admissible improving move. A move
// is admissible when the target region has balance headroom and it
// never worsens either metric (Δcut <= 0, ΔSteiner <= 0) while
// strictly improving at least one — so the cut-net count and the
// Steiner cost are both monotone non-increasing from the seed.
func (s *kwayState) movePass(res *KWayResult) int {
	const eps = 1e-9
	moved := 0
	for v := range s.assign {
		cur := s.assign[v]
		curCut, curSt := 0, 0.0
		for _, ni := range s.incident[v] {
			c, l := s.netCost(&s.nets[ni], -1, -1, -1)
			if c {
				curCut++
				curSt += l
			}
		}
		bestR, bestCut, bestSt := -1, 0, 0.0
		for r := range s.regions {
			if r == cur || s.regArea[r]+s.area[v] > s.areaCap {
				continue
			}
			dCut, dSt := -curCut, -curSt
			for _, ni := range s.incident[v] {
				c, l := s.netCost(&s.nets[ni], v, r, -1)
				if c {
					dCut++
					dSt += l
				}
			}
			if dCut > 0 || dSt > eps || (dCut == 0 && dSt > -eps) {
				continue
			}
			if bestR < 0 || dCut < bestCut || (dCut == bestCut && dSt < bestSt-eps) {
				bestR, bestCut, bestSt = r, dCut, dSt
			}
		}
		if bestR >= 0 {
			s.regArea[cur] -= s.area[v]
			s.regArea[bestR] += s.area[v]
			s.assign[v] = bestR
			moved++
		}
	}
	res.Moves += moved
	return moved
}

// replicate clones cut-net drivers into the regions their sinks live
// in when doing so removes at least one cut net, strictly lowers the
// Steiner estimate, and fits the replica area budget. The DAG is
// cloned lazily on the first accepted replication; the forest is
// rebuilt once at the end when any replica exists.
func (s *kwayState) replicate(d *subject.DAG, f *Forest, res *KWayResult) error {
	const eps = 1e-9
	budget := int(s.opt.ReplicaAreaBudget * float64(totalArea(s.area)))
	if budget < 1 {
		budget = 1
	}
	work := d
	var father []int
	cloned := false
	numNets := len(s.nets) // replica nets appended past this are final

	for ni := 0; ni < numNets; ni++ {
		if res.Replicas >= budget {
			break
		}
		cut, _ := s.netCost(&s.nets[ni], -1, -1, -1)
		if !cut {
			continue
		}
		driver := s.nets[ni].driver
		dv := s.vertexOf[driver]
		if dv < 0 {
			continue
		}
		// Candidate regions: every region with at least one gate sink,
		// other than the driver's, in ascending order.
		span := map[int]bool{}
		for _, sg := range s.nets[ni].sinkGates {
			span[s.assign[s.vertexOf[sg]]] = true
		}
		for b := 0; b < len(s.regions); b++ {
			if b == s.assign[dv] || !span[b] || res.Replicas >= budget {
				continue
			}
			if s.regArea[b]+1 > s.areaCap {
				continue
			}
			moved, kept := splitSinks(s, ni, b)
			if len(moved) == 0 {
				continue
			}
			// Score the replication: the driver net loses its region-b
			// sinks, the replica net is uncut by construction, and
			// every tree-gate fanin net gains a pin in region b.
			oldCut, oldSt := 0, 0.0
			newCut, newSt := 0, 0.0
			c, l := s.netCost(&s.nets[ni], -1, -1, -1)
			if c {
				oldCut++
				oldSt += l
			}
			trial := s.nets[ni]
			trial.sinkGates = kept
			trial.vertices = s.recomputeVertices(&trial)
			c, l = s.netCost(&trial, -1, -1, -1)
			if c {
				newCut++
				newSt += l
			}
			for _, fi := range work.Fanins(driver) {
				fn := s.netOf[fi]
				if fn < 0 {
					continue
				}
				c, l = s.netCost(&s.nets[fn], -1, -1, -1)
				if c {
					oldCut++
					oldSt += l
				}
				// The fanin net gains the replica as a pin in region b.
				c, l = s.netCost(&s.nets[fn], -1, -1, b)
				if c {
					newCut++
					newSt += l
				}
			}
			if newCut-oldCut > -1 || newSt-oldSt > -eps {
				continue
			}

			// Accept: clone lazily, create the replica, rewire the
			// region-b sinks, extend the model.
			if !cloned {
				work = d.Clone()
				father = append([]int(nil), f.Father...)
				res.Pos = append([]geom.Point(nil), s.opt.Pos...)
				cloned = true
			}
			rid, err := work.AddReplicaOf(driver)
			if err != nil {
				return fmt.Errorf("partition: replicate gate %d: %w", driver, err)
			}
			for _, sg := range moved {
				if err := work.RewireFanin(int(sg), driver, rid); err != nil {
					return fmt.Errorf("partition: rewire sink %d: %w", sg, err)
				}
			}
			nv := len(s.assign)
			s.assign = append(s.assign, b)
			s.area = append(s.area, 1)
			s.roots = append(s.roots, rid)
			s.regArea[b]++
			s.vertexOf = append(s.vertexOf, nv) // vertexOf[rid]
			father = append(father, -1)
			pts := make([]geom.Point, 0, len(moved))
			for _, sg := range moved {
				pts = append(pts, res.Pos[sg])
			}
			res.Pos = append(res.Pos, geom.CenterOfMass(pts))

			// Driver net drops the moved sinks; replica net is new.
			s.nets[ni].sinkGates = kept
			s.nets[ni].vertices = s.recomputeVertices(&s.nets[ni])
			rn := kNet{driver: rid, sinkGates: moved}
			rn.vertices = append(rn.vertices, int32(nv))
			for _, sg := range moved {
				rn.vertices = append(rn.vertices, int32(s.vertexOf[sg]))
			}
			rn.vertices = dedupInt32(rn.vertices)
			s.netOf = append(s.netOf, -1) // extend for rid
			s.netOf[rid] = int32(len(s.nets))
			s.nets = append(s.nets, rn)
			s.incident = append(s.incident, nil)
			// The replica is a new sink pin on each of its fanin nets.
			for _, fi := range work.Fanins(rid) {
				fn := s.netOf[fi]
				if fn < 0 {
					continue
				}
				s.nets[fn].sinkGates = append(s.nets[fn].sinkGates, int32(rid))
				s.nets[fn].vertices = dedupInt32(append(s.nets[fn].vertices, int32(nv)))
			}
			res.Replicas++
		}
	}

	if cloned {
		res.DAG = work
		res.Forest = finish(work, father, work.LiveGates())
	}
	return nil
}

// splitSinks partitions net ni's sink gates into those assigned to
// region b (moved, rewired onto the replica) and the rest (kept).
func splitSinks(s *kwayState, ni, b int) (moved, kept []int32) {
	for _, sg := range s.nets[ni].sinkGates {
		if s.assign[s.vertexOf[sg]] == b {
			moved = append(moved, sg)
		} else {
			kept = append(kept, sg)
		}
	}
	return moved, kept
}

// recomputeVertices rebuilds a net's movable pin set from its driver
// and remaining sinks.
func (s *kwayState) recomputeVertices(n *kNet) []int32 {
	vs := []int32{int32(s.vertexOf[n.driver])}
	for _, sg := range n.sinkGates {
		vs = append(vs, int32(s.vertexOf[sg]))
	}
	return dedupInt32(vs)
}

// regionOfGates maps every gate of the (possibly replicated) DAG to
// its region via its tree's assignment.
func (s *kwayState) regionOfGates(d *subject.DAG, f *Forest) []int {
	out := make([]int, d.NumGates())
	for g := range out {
		out[g] = -1
	}
	rootOf := f.RootOf()
	for g := range out {
		if r := rootOf[g]; r >= 0 {
			out[g] = s.assign[s.vertexOf[r]]
		}
	}
	return out
}

func totalArea(area []int) int {
	t := 0
	for _, a := range area {
		t += a
	}
	return t
}
