package partition

// Edit-local PDP re-partitioning. A PDP father is a nearest-consumer
// choice over a gate's live fanouts, its position, its fanouts'
// positions and its PO pads, so an edit that rewires some gates and
// moves others can change the father only of
//
//   - an edited gate, a moved gate, and a gate whose liveness changed;
//   - a fanin of a moved gate (its distance to that consumer changed);
//   - an old or new fanin of an edited gate (it lost or gained a
//     consumer);
//   - a fanin of a gate whose liveness changed (it lost or gained a
//     live consumer).
//
// Liveness changes start at the edited gates' old and new fanins and
// propagate down fanin edges; fanouts have larger IDs than their
// fanins, so one pass in descending ID order settles each gate after
// all its consumers. Every other gate keeps its father. The trees whose
// membership or order those fathers can change are rebuilt; the rest
// are copied from the previous forest into arrays of the new forest's
// own, so the new forest holds no window into the previous one.

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"casyn/internal/subject"
)

// RepartitionPDP returns the PDP forest of an edited design —
// Partition(in, PDP), bit for bit — computed from prev, the PDP forest
// of the design before the edit, by re-deciding only the fathers the
// edit can flip. prevDAG is the DAG before the edit; in.DAG is its
// edited copy, with the same gates, in which edited lists the gates
// whose type or fanins changed. in.Pos differs from the positions prev
// was built with exactly at the gates moved lists; in.POPads and the
// outputs are unchanged. prev is read-only.
func RepartitionPDP(prev *Forest, prevDAG *subject.DAG, in Input, edited, moved []int) (*Forest, error) {
	d := in.DAG
	if d == nil || prevDAG == nil || prev == nil {
		return nil, fmt.Errorf("partition: RepartitionPDP needs the previous forest and both DAGs")
	}
	n := d.NumGates()
	if prevDAG.NumGates() != n || len(prev.Father) != n {
		return nil, fmt.Errorf("partition: edited DAG has %d gates, previous forest covers %d", n, len(prev.Father))
	}
	if len(in.Pos) < n {
		return nil, fmt.Errorf("partition: PDP needs positions for all %d gates, got %d", n, len(in.Pos))
	}
	for _, g := range slices.Concat(edited, moved) {
		if g < 0 || g >= n {
			return nil, fmt.Errorf("partition: edited gate %d out of range [0,%d)", g, n)
		}
	}
	isPODriver := poDrivers(d)
	flipped := liveFlips(prev, prevDAG, d, edited, isPODriver)
	live := func(g int) bool { return liveAfter(prev, flipped, g) }

	// The gates whose father the edit can flip.
	redo := make(map[int]bool)
	for _, g := range edited {
		redo[g] = true
		for _, fi := range prevDAG.Fanins(g) {
			redo[fi] = true
		}
		for _, fi := range d.Fanins(g) {
			redo[fi] = true
		}
	}
	for _, g := range moved {
		redo[g] = true
		for _, fi := range d.Fanins(g) {
			redo[fi] = true
		}
	}
	for g := range flipped {
		redo[g] = true
		for _, fi := range d.Fanins(g) {
			redo[fi] = true
		}
	}

	father := slices.Clone(prev.Father)
	var fos []int
	var changed []int // gates whose father or liveness changed
	for g := range redo {
		f := -1
		if isTreeGate(d.Gate(g).Type) && live(g) {
			fos = fos[:0]
			for _, fo := range d.Fanouts(g) {
				if live(fo) {
					fos = append(fos, fo)
				}
			}
			f = pdpFather(g, fos, in.Pos, in.POPads[g], isPODriver[g])
		}
		father[g] = f
		if _, ok := flipped[g]; ok || f != prev.Father[g] {
			changed = append(changed, g)
		}
	}
	f := &Forest{Father: father}
	if len(changed) == 0 {
		f.Roots = slices.Clone(prev.Roots)
		f.trees = copyTrees(prev.trees, prev.Roots, nil)
		f.rootOf = slices.Clone(prev.rootOf)
		return f, nil
	}
	slices.Sort(changed)
	isRoot := func(g int) bool {
		return isTreeGate(d.Gate(g).Type) && live(g) && father[g] < 0
	}

	// Roots: the previous ones minus those that stopped being roots,
	// plus the gates that became roots; every root-status change is a
	// changed gate.
	var added []int
	for _, g := range changed {
		if isRoot(g) && prev.rootOf[g] != g {
			added = append(added, g)
		}
	}
	roots := make([]int, 0, len(prev.Roots)+len(added))
	ai := 0
	for _, r := range prev.Roots {
		for ; ai < len(added) && added[ai] < r; ai++ {
			roots = append(roots, added[ai])
		}
		if !redo[r] || isRoot(r) {
			roots = append(roots, r)
		}
	}
	roots = append(roots, added[ai:]...)
	f.Roots = roots

	// Affected trees: the old trees a changed gate belonged to, and the
	// new trees a changed gate belongs to. A new tree whose root has no
	// changed gate below it in either forest is the old tree verbatim.
	oldHit := make(map[int]bool)
	newHit := make(map[int]bool)
	for _, g := range changed {
		if r := prev.rootOf[g]; r >= 0 {
			oldHit[r] = true
		}
		if !live(g) || !isTreeGate(d.Gate(g).Type) {
			continue
		}
		v := g
		for father[v] >= 0 {
			v = father[v]
		}
		newHit[v] = true
	}
	for r := range oldHit {
		if isRoot(r) {
			newHit[r] = true
		}
	}
	built := make(map[int][]int, len(newHit))
	for r := range newHit {
		built[r] = treeGates(d, father, r)
	}
	f.trees = copyTrees(prev.trees, roots, built)

	rootOf := slices.Clone(prev.rootOf)
	for _, t := range prev.trees {
		if oldHit[t.Root] {
			for _, g := range t.Gates {
				rootOf[g] = -1
			}
		}
	}
	for r, gates := range built {
		for _, g := range gates {
			rootOf[g] = r
		}
	}
	f.rootOf = rootOf
	return f, nil
}

// liveFlips returns the tree gates whose liveness the edit changed,
// with their new liveness. Only the fanout sets of the edited gates'
// old and new fanins changed directly; a gate's liveness is settled
// after all its consumers' by visiting candidates in descending ID
// order, and a gate whose liveness flips puts its fanins up for a
// visit.
func liveFlips(prev *Forest, prevDAG, d *subject.DAG, edited []int, isPODriver []bool) map[int]bool {
	flipped := make(map[int]bool)
	live := func(g int) bool { return liveAfter(prev, flipped, g) }
	q := &maxHeap{}
	for _, g := range edited {
		for _, fi := range prevDAG.Fanins(g) {
			heap.Push(q, fi)
		}
		for _, fi := range d.Fanins(g) {
			heap.Push(q, fi)
		}
	}
	last := -1
	for q.Len() > 0 {
		g := heap.Pop(q).(int)
		if g == last || !isTreeGate(d.Gate(g).Type) {
			continue
		}
		last = g
		l := isPODriver[g]
		for _, fo := range d.Fanouts(g) {
			if l {
				break
			}
			l = live(fo)
		}
		if l == live(g) {
			continue
		}
		flipped[g] = l
		for _, fi := range d.Fanins(g) {
			heap.Push(q, fi)
		}
	}
	return flipped
}

// liveAfter reports whether tree gate g is live after the edit: as
// flipped records when the edit changed it, else as before the edit,
// when a tree gate is live iff it belongs to a tree.
func liveAfter(prev *Forest, flipped map[int]bool, g int) bool {
	if l, ok := flipped[g]; ok {
		return l
	}
	return prev.rootOf[g] >= 0
}

// maxHeap is a max-heap of gate IDs.
type maxHeap []int

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// treeGates lists the tree rooted at root in materializeTrees' order:
// post-order, children before parents, siblings by ascending gate ID.
// A gate's children are the fanins whose father it is.
func treeGates(d *subject.DAG, father []int, root int) []int {
	type frame struct {
		g    int
		kids [2]int
		n, i int
	}
	kidsOf := func(g int) frame {
		fr := frame{g: g}
		for _, fi := range d.Fanins(g) {
			if father[fi] == g {
				fr.kids[fr.n] = fi
				fr.n++
			}
		}
		if fr.n == 2 && fr.kids[0] > fr.kids[1] {
			fr.kids[0], fr.kids[1] = fr.kids[1], fr.kids[0]
		}
		return fr
	}
	var gates []int
	stack := []frame{kidsOf(root)}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.i < fr.n {
			k := fr.kids[fr.i]
			fr.i++
			stack = append(stack, kidsOf(k))
			continue
		}
		gates = append(gates, fr.g)
		stack = stack[:len(stack)-1]
	}
	return gates
}

// copyTrees lays out a forest's trees, one per root in ascending
// order, in one backing array of their own: the gates built holds for
// a root, else the gates of prev's tree at that root.
func copyTrees(prev []Tree, roots []int, built map[int][]int) []Tree {
	size := 0
	pi := 0
	for _, r := range roots {
		if gates, ok := built[r]; ok {
			size += len(gates)
			continue
		}
		pi = seekTree(prev, pi, r)
		size += len(prev[pi].Gates)
	}
	all := make([]int, 0, size)
	trees := make([]Tree, 0, len(roots))
	pi = 0
	for _, r := range roots {
		start := len(all)
		if gates, ok := built[r]; ok {
			all = append(all, gates...)
		} else {
			pi = seekTree(prev, pi, r)
			all = append(all, prev[pi].Gates...)
		}
		trees = append(trees, Tree{Root: r, Gates: all[start:len(all):len(all)]})
	}
	return trees
}

// seekTree returns the index of the tree rooted at r in prev (sorted
// by root), searching forward from i.
func seekTree(prev []Tree, i, r int) int {
	j, _ := slices.BinarySearchFunc(prev[i:], r, func(t Tree, r int) int { return cmp.Compare(t.Root, r) })
	return i + j
}
