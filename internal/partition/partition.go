// Package partition implements the DAG-partitioning step of technology
// mapping: cutting the subject DAG into a forest of trees that the
// dynamic-programming tree coverer can solve optimally.
//
// Three schemes are provided, matching Section 3.1 of the paper:
//
//   - Dagon: the DAGON scheme — every multi-fanout vertex becomes a
//     tree root, so no optimization crosses multi-fanout boundaries.
//   - Cone: the MIS scheme — logic cones grown from the outputs in
//     processing order; a vertex joins the cone that reaches it first,
//     which makes the result depend on output order (the drawback the
//     paper points out).
//   - PDP: the paper's placement-driven partitioning (Figure 2) — each
//     vertex's father is its geometrically nearest consumer on the
//     chip layout image, so trees cluster vertices placed in the same
//     neighborhood and the result is order-independent.
//
// The partition is represented by a father pointer per gate: a gate's
// father is the consumer whose tree it belongs to; gates whose father
// is -1 are tree roots. Primary inputs and constants never join trees.
package partition

import (
	"fmt"
	"sort"

	"casyn/internal/geom"
	"casyn/internal/subject"
)

// Method selects the partitioning scheme.
type Method int

const (
	// PDP is the paper's placement-driven partitioning; it is the zero
	// value because it is the method the methodology defaults to.
	PDP Method = iota
	// Dagon cuts at every multi-fanout vertex.
	Dagon
	// Cone grows output cones in processing order.
	Cone
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Dagon:
		return "dagon"
	case Cone:
		return "cone"
	case PDP:
		return "pdp"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Input bundles what the partitioners need.
type Input struct {
	DAG *subject.DAG
	// Pos holds the placement position of every gate (indexed by gate
	// ID). Required by PDP, ignored by the others.
	Pos []geom.Point
	// POPads optionally gives, per gate ID, fixed pad locations of the
	// primary outputs the gate drives. PDP considers a pad a candidate
	// father location; a gate whose nearest consumer is a pad becomes
	// a root.
	POPads map[int][]geom.Point
}

// Forest is the partition result.
type Forest struct {
	// Father[g] is the consumer gate that g belongs to, or -1 when g
	// is a tree root or not a tree vertex (PI/constant).
	Father []int
	// Roots lists tree roots in ascending gate-ID order.
	Roots []int

	// Caches computed once at finish() time. Every partitioner funnels
	// through finish, so Trees/RootOf/Stats serve these instead of
	// re-deriving liveness and tree membership per call — the repeated
	// per-tree sweeps in mapper.Prepare were paying that recomputation
	// on every prefix build. The caches are populated eagerly (never
	// lazily) because a Forest is shared read-only across the
	// concurrent K ladder; a lazy memo would race.
	trees  []Tree
	rootOf []int
	stats  Stats
	cached bool
}

// Partition cuts the subject DAG with the chosen method.
func Partition(in Input, m Method) (*Forest, error) {
	d := in.DAG
	if d == nil {
		return nil, fmt.Errorf("partition: nil DAG")
	}
	switch m {
	case Dagon:
		return partitionDagon(d), nil
	case Cone:
		return partitionCone(d), nil
	case PDP:
		if len(in.Pos) < d.NumGates() {
			return nil, fmt.Errorf("partition: PDP needs positions for all %d gates, got %d",
				d.NumGates(), len(in.Pos))
		}
		return partitionPDP(in), nil
	default:
		return nil, fmt.Errorf("partition: unknown method %d", int(m))
	}
}

// isTreeGate reports whether the gate type participates in trees.
func isTreeGate(t subject.GateType) bool {
	return t == subject.Nand2 || t == subject.Inv
}

// poDrivers returns a dense gate-indexed set of primary-output
// drivers. The per-gate rescan of Outputs it replaces was quadratic
// on the PLA-style benchmarks (tens of thousands of gates times
// hundreds of outputs).
func poDrivers(d *subject.DAG) []bool {
	set := make([]bool, d.NumGates())
	for _, o := range d.Outputs() {
		set[o.Gate] = true
	}
	return set
}

// finish fills Roots from Father, precomputes the tree/root-of/stats
// caches, and returns the forest.
func finish(d *subject.DAG, father []int) *Forest {
	f := &Forest{Father: father}
	for _, g := range d.LiveGates() {
		if isTreeGate(d.Gate(g).Type) && father[g] == -1 {
			f.Roots = append(f.Roots, g)
		}
	}
	sort.Ints(f.Roots)
	f.trees = f.materializeTrees()
	f.rootOf = f.computeRootOf(len(father))
	f.stats = statsOf(f.trees)
	f.cached = true
	return f
}

// partitionDagon assigns every single-fanout gate to its unique
// consumer; multi-fanout gates and PO drivers become roots.
func partitionDagon(d *subject.DAG) *Forest {
	father := newFatherSlice(d)
	live := liveSet(d)
	isPODriver := poDrivers(d)
	for _, g := range d.LiveGates() {
		if !isTreeGate(d.Gate(g).Type) {
			continue
		}
		fos := liveFanouts(d, g, live)
		if len(fos) == 1 && !isPODriver[g] {
			father[g] = fos[0]
		}
	}
	return finish(d, father)
}

// partitionCone grows cones from the outputs in declaration order; a
// gate joins the cone of the consumer that reaches it first.
func partitionCone(d *subject.DAG) *Forest {
	father := newFatherSlice(d)
	assigned := make([]bool, d.NumGates())
	isPODriver := poDrivers(d)
	// Explicit-stack pre-order DFS, frame-for-frame equivalent to the
	// recursive closure it replaces: each frame resumes at the next
	// fanin, so sibling order (and therefore which cone reaches a
	// shared gate first) is unchanged. The recursion blew the
	// goroutine stack on deep million-gate chains.
	type coneFrame struct {
		g, next int
	}
	var stack []coneFrame
	grow := func(root int) {
		stack = append(stack[:0], coneFrame{g: root})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			fis := d.Fanins(fr.g)
			if fr.next >= len(fis) {
				stack = stack[:len(stack)-1]
				continue
			}
			fi := fis[fr.next]
			fr.next++
			if !isTreeGate(d.Gate(fi).Type) || assigned[fi] {
				continue
			}
			if isPODriver[fi] {
				continue // PO drivers stay roots of their own cones
			}
			assigned[fi] = true
			father[fi] = fr.g
			stack = append(stack, coneFrame{g: fi})
		}
	}
	for _, o := range d.Outputs() {
		root := o.Gate
		if !isTreeGate(d.Gate(root).Type) || assigned[root] {
			continue
		}
		assigned[root] = true // as a root
		grow(root)
	}
	// Any live tree gate not reached (possible with exotic output
	// sharing) becomes its own root; grow its cone too for coverage.
	for _, g := range d.LiveGates() {
		if isTreeGate(d.Gate(g).Type) && !assigned[g] {
			assigned[g] = true
			grow(g)
		}
	}
	return finish(d, father)
}

// partitionPDP implements the paper's Figure 2: the father of every
// vertex is its nearest consumer on the layout image. Consumers are
// the gate's fanout gates plus the pad locations of POs it drives;
// when a pad is nearest, the gate is a root. Ties break toward the
// lowest gate ID for determinism.
func partitionPDP(in Input) *Forest {
	d := in.DAG
	father := newFatherSlice(d)
	live := liveSet(d)
	isPODriver := poDrivers(d)
	for _, g := range d.LiveGates() {
		if !isTreeGate(d.Gate(g).Type) {
			continue
		}
		fos := liveFanouts(d, g, live)
		bestDist := -1.0
		bestFather := -1
		for _, fo := range fos {
			dist := in.Pos[g].Manhattan(in.Pos[fo])
			if bestDist < 0 || dist < bestDist || (dist == bestDist && fo < bestFather) {
				bestDist = dist
				bestFather = fo
			}
		}
		for _, pad := range in.POPads[g] {
			dist := in.Pos[g].Manhattan(pad)
			if bestDist < 0 || dist < bestDist {
				bestDist = dist
				bestFather = -1 // nearest consumer is an output pad: root
			}
		}
		if bestFather < 0 {
			continue // pad-nearest or no consumers: stays a root
		}
		if isPODriver[g] && len(in.POPads[g]) == 0 {
			// PO driver without pad information: keep it a root so the
			// output signal is always visible without duplication.
			continue
		}
		father[g] = bestFather
	}
	return finish(d, father)
}

func newFatherSlice(d *subject.DAG) []int {
	father := make([]int, d.NumGates())
	for i := range father {
		father[i] = -1
	}
	return father
}

// liveSet returns a bitmap of live gates.
func liveSet(d *subject.DAG) []bool {
	live := make([]bool, d.NumGates())
	for _, g := range d.LiveGates() {
		live[g] = true
	}
	return live
}

// liveFanouts filters a gate's fanouts to live consumers.
func liveFanouts(d *subject.DAG, g int, live []bool) []int {
	var out []int
	for _, fo := range d.Fanouts(g) {
		if live[fo] {
			out = append(out, fo)
		}
	}
	return out
}

// Tree is one subject tree of the forest, in covering-ready form.
type Tree struct {
	Root int
	// Gates lists the tree's internal vertices in topological order
	// (children before parents); Gates[len-1] == Root.
	Gates []int
	// Children[g] lists the fanins of g that are internal vertices of
	// this tree (i.e. whose father is g). Other fanins are leaf
	// references to gates outside the tree.
	Children map[int][]int
}

// Trees returns the forest's trees. The result is the finish()-time
// cache and must be treated read-only (it is shared by every caller,
// including the concurrent covering fan-out).
func (f *Forest) Trees(d *subject.DAG) []Tree {
	if f.cached {
		return f.trees
	}
	return f.materializeTrees()
}

// materializeTrees builds the tree list from Father/Roots with an
// explicit-stack post-order DFS (children before parents, sibling
// order by ascending gate ID — identical to the recursive visit it
// replaces, which could blow the stack on deep million-gate chains).
func (f *Forest) materializeTrees() []Tree {
	kids := make(map[int][]int)
	for g, fa := range f.Father {
		if fa >= 0 {
			kids[fa] = append(kids[fa], g)
		}
	}
	type treeFrame struct {
		g, next int
	}
	var stack []treeFrame
	trees := make([]Tree, 0, len(f.Roots))
	for _, root := range f.Roots {
		t := Tree{Root: root, Children: make(map[int][]int)}
		stack = append(stack[:0], treeFrame{g: root})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			ks := kids[fr.g]
			if fr.next < len(ks) {
				fr.next++
				stack = append(stack, treeFrame{g: ks[fr.next-1]})
				continue
			}
			t.Children[fr.g] = ks
			t.Gates = append(t.Gates, fr.g)
			stack = stack[:len(stack)-1]
		}
		trees = append(trees, t)
	}
	return trees
}

// RootOf returns, per gate ID, the root of the tree the gate belongs
// to (-1 for PIs, constants, and dead gates). The result is the
// finish()-time cache and must be treated read-only.
func (f *Forest) RootOf(d *subject.DAG) []int {
	if f.cached {
		return f.rootOf
	}
	return f.computeRootOf(d.NumGates())
}

// computeRootOf resolves every father chain by iterative path walking
// with memoization. It makes no assumption about ID ordering along a
// chain: gates are normally created fanins-first (father ID > child
// ID), but replicas appended by the k-way partitioner have IDs larger
// than every other vertex while their father — when attached into a
// sink's tree — is smaller.
func (f *Forest) computeRootOf(n int) []int {
	rootOf := make([]int, n)
	for g := range rootOf {
		rootOf[g] = -1
	}
	for _, r := range f.Roots {
		rootOf[r] = r
	}
	var path []int
	for g := 0; g < n; g++ {
		if rootOf[g] >= 0 || f.Father[g] < 0 {
			continue
		}
		path = path[:0]
		v := g
		for rootOf[v] < 0 && f.Father[v] >= 0 {
			path = append(path, v)
			v = f.Father[v]
		}
		r := rootOf[v] // -1 on a dead chain, matching the old pass
		for _, p := range path {
			rootOf[p] = r
		}
	}
	return rootOf
}

// InTree returns a membership test for the tree.
func (t *Tree) InTree() func(gate int) bool {
	set := make(map[int]bool, len(t.Gates))
	for _, g := range t.Gates {
		set[g] = true
	}
	return func(g int) bool { return set[g] }
}

// Stats summarizes a forest for reporting and tests.
type Stats struct {
	Trees        int
	TreeGates    int
	MaxTreeSize  int
	MeanTreeSize float64
}

// Stats returns forest statistics (the finish()-time cache when
// available).
func (f *Forest) Stats(d *subject.DAG) Stats {
	if f.cached {
		return f.stats
	}
	return statsOf(f.Trees(d))
}

func statsOf(trees []Tree) Stats {
	s := Stats{Trees: len(trees)}
	for _, t := range trees {
		s.TreeGates += len(t.Gates)
		if len(t.Gates) > s.MaxTreeSize {
			s.MaxTreeSize = len(t.Gates)
		}
	}
	if s.Trees > 0 {
		s.MeanTreeSize = float64(s.TreeGates) / float64(s.Trees)
	}
	return s
}
