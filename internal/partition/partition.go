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

// ParseMethod is the inverse of String: the method named name, false
// when no method has that name.
func ParseMethod(name string) (Method, bool) {
	for m := PDP; m <= Cone; m++ {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
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
	// through finish, so Trees/RootOf serve these instead of
	// re-deriving liveness and tree membership per call — the repeated
	// per-tree sweeps in mapper.Prepare were paying that recomputation
	// on every prefix build. The caches are populated eagerly (never
	// lazily) because a Forest is shared read-only across the
	// concurrent K ladder; a lazy memo would race.
	trees  []Tree
	rootOf []int
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

// finish fills Roots from Father, precomputes the tree and root-of
// caches, and returns the forest. live is d.LiveGates().
func finish(d *subject.DAG, father, live []int) *Forest {
	f := &Forest{Father: father}
	for _, g := range live {
		if isTreeGate(d.Gate(g).Type) && father[g] == -1 {
			f.Roots = append(f.Roots, g)
		}
	}
	sort.Ints(f.Roots)
	f.trees = f.materializeTrees()
	f.rootOf = f.computeRootOf(len(father))
	return f
}

// partitionDagon assigns every single-fanout gate to its unique
// consumer; multi-fanout gates and PO drivers become roots.
func partitionDagon(d *subject.DAG) *Forest {
	father := newFatherSlice(d)
	live := d.LiveGates()
	isLive := liveSet(d, live)
	isPODriver := poDrivers(d)
	var fos []int
	for _, g := range live {
		if !isTreeGate(d.Gate(g).Type) {
			continue
		}
		fos = liveFanouts(d, g, isLive, fos[:0])
		if len(fos) == 1 && !isPODriver[g] {
			father[g] = fos[0]
		}
	}
	return finish(d, father, live)
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
	live := d.LiveGates()
	for _, g := range live {
		if isTreeGate(d.Gate(g).Type) && !assigned[g] {
			assigned[g] = true
			grow(g)
		}
	}
	return finish(d, father, live)
}

// partitionPDP implements the paper's Figure 2: the father of every
// vertex is its nearest consumer on the layout image. Consumers are
// the gate's fanout gates plus the pad locations of POs it drives;
// when a pad is nearest, the gate is a root. Ties break toward the
// lowest gate ID for determinism.
func partitionPDP(in Input) *Forest {
	d := in.DAG
	father := newFatherSlice(d)
	live := d.LiveGates()
	isLive := liveSet(d, live)
	isPODriver := poDrivers(d)
	var fos []int
	for _, g := range live {
		if !isTreeGate(d.Gate(g).Type) {
			continue
		}
		fos = liveFanouts(d, g, isLive, fos[:0])
		father[g] = pdpFather(g, fos, in.Pos, in.POPads[g], isPODriver[g])
	}
	return finish(d, father, live)
}

// pdpFather is the PDP father of gate g given its live consumers fos:
// the nearest consumer, ties to the lowest gate ID. It is -1 (g is a
// root) when an output pad of g is strictly nearer than every
// consumer, when g has no consumer, or when g drives a primary output
// whose pad is unknown — such a driver stays a root so the output
// signal is always visible without duplication.
func pdpFather(g int, fos []int, pos []geom.Point, pads []geom.Point, poDriver bool) int {
	bestDist := -1.0
	bestFather := -1
	for _, fo := range fos {
		dist := pos[g].Manhattan(pos[fo])
		if bestDist < 0 || dist < bestDist || (dist == bestDist && fo < bestFather) {
			bestDist = dist
			bestFather = fo
		}
	}
	for _, pad := range pads {
		dist := pos[g].Manhattan(pad)
		if bestDist < 0 || dist < bestDist {
			bestDist = dist
			bestFather = -1 // nearest consumer is an output pad: root
		}
	}
	if bestFather < 0 || (poDriver && len(pads) == 0) {
		return -1
	}
	return bestFather
}

func newFatherSlice(d *subject.DAG) []int {
	father := make([]int, d.NumGates())
	for i := range father {
		father[i] = -1
	}
	return father
}

// liveSet returns a bitmap of live gates; live is d.LiveGates().
func liveSet(d *subject.DAG, live []int) []bool {
	set := make([]bool, d.NumGates())
	for _, g := range live {
		set[g] = true
	}
	return set
}

// liveFanouts appends a gate's live consumers to buf (pass buf[:0] to
// reuse its backing array).
func liveFanouts(d *subject.DAG, g int, live []bool, buf []int) []int {
	for _, fo := range d.Fanouts(g) {
		if live[fo] {
			buf = append(buf, fo)
		}
	}
	return buf
}

// Tree is one subject tree of the forest, in covering-ready form. A
// gate's children in the tree are the gates whose Forest.Father is
// that gate; its other fanins are leaf references to gates outside
// the tree.
type Tree struct {
	Root int
	// Gates lists the tree's internal vertices in topological order
	// (children before parents); Gates[len-1] == Root.
	Gates []int
}

// Trees returns the forest's trees. The result is the finish()-time
// cache and must be treated read-only (it is shared by every caller,
// including the concurrent covering fan-out).
func (f *Forest) Trees() []Tree { return f.trees }

// materializeTrees builds the tree list from Father/Roots with an
// explicit-stack post-order DFS (children before parents, sibling
// order by ascending gate ID — identical to the recursive visit it
// replaces, which could blow the stack on deep million-gate chains).
// The children lists are one CSR array over Father, and every tree's
// Gates is a window of one shared backing array.
func (f *Forest) materializeTrees() []Tree {
	// kids[off[g]:off[g+1]] are the gates whose father is g, ascending:
	// count per father, prefix-sum to range ends, then fill each range
	// back to front walking the gates in descending order.
	n := len(f.Father)
	off := make([]int, n+1)
	for _, fa := range f.Father {
		if fa >= 0 {
			off[fa]++
		}
	}
	for g := 1; g <= n; g++ {
		off[g] += off[g-1]
	}
	kids := make([]int, off[n])
	for g := n - 1; g >= 0; g-- {
		if fa := f.Father[g]; fa >= 0 {
			off[fa]--
			kids[off[fa]] = g
		}
	}
	type treeFrame struct {
		g, next int
	}
	var stack []treeFrame
	// Every tree gate is a root or has a father, so len(kids)+len(Roots)
	// bounds the gates of all trees together.
	gates := make([]int, 0, len(kids)+len(f.Roots))
	trees := make([]Tree, 0, len(f.Roots))
	for _, root := range f.Roots {
		start := len(gates)
		stack = append(stack[:0], treeFrame{g: root, next: off[root]})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.next < off[fr.g+1] {
				k := kids[fr.next]
				fr.next++
				stack = append(stack, treeFrame{g: k, next: off[k]})
				continue
			}
			gates = append(gates, fr.g)
			stack = stack[:len(stack)-1]
		}
		trees = append(trees, Tree{Root: root, Gates: gates[start:len(gates):len(gates)]})
	}
	return trees
}

// RootOf returns, per gate ID, the root of the tree the gate belongs
// to (-1 for PIs, constants, and dead gates). The result is the
// finish()-time cache and must be treated read-only.
func (f *Forest) RootOf() []int { return f.rootOf }

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
