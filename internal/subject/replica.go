package subject

// Gate replication for the k-way partitioner: duplicating a cheap
// multi-fanout driver into a second placement region removes its cut
// net outright (the RePart idea). A replica is a verbatim copy of a
// base gate — same type, same fanins — appended to the DAG with its
// lineage recorded, deliberately bypassing structural hashing (the
// duplicate shape is the point). Sinks are then moved onto the replica
// with RewireFanin.
//
// Replicas break the ID-order invariant the rest of the package leans
// on: a replica's ID is larger than the sinks that read it. Eval and
// TopoOrder therefore switch to a genuine DFS topological order as
// soon as the first replica exists (Replicated reports this), and
// consumers that iterate gates by ascending ID must use TopoOrder
// instead.

import "fmt"

// AddReplicaOf appends a copy of base gate id (same type, same fanins)
// and records the replication lineage. Structural hashing is bypassed:
// the replica is an intentional duplicate of existing structure, and
// later Add* calls must keep resolving to the original. Only NAND2 and
// INV gates are replicable.
func (d *DAG) AddReplicaOf(id int) (int, error) {
	if id < 0 || id >= len(d.gates) {
		return -1, fmt.Errorf("subject: AddReplicaOf id %d out of range [0,%d)", id, len(d.gates))
	}
	orig := d.gates[id]
	switch orig.Type {
	case Nand2, Inv:
	default:
		return -1, fmt.Errorf("subject: AddReplicaOf target %d is a %s, not a base gate", id, orig.Type)
	}
	rid := len(d.gates)
	d.gates = append(d.gates, Gate{ID: rid, Type: orig.Type, In: orig.In})
	if d.replicaOf == nil {
		d.replicaOf = make(map[int]int)
	}
	// Chains of replicas resolve to the ultimate original.
	src := id
	if o, ok := d.replicaOf[id]; ok {
		src = o
	}
	d.replicaOf[rid] = src
	d.fo.Store(nil)
	return rid, nil
}

// Replicated reports whether any replica exists — and therefore
// whether ascending gate IDs are still a topological order (they are
// not once a sink's fanin points at a larger-ID replica).
func (d *DAG) Replicated() bool { return len(d.replicaOf) > 0 }

// RewireFanin replaces every occurrence of gate `from` among sink's
// fanins with gate `to`. It is the replication primitive: unlike
// SetGate it permits to > sink (a replica's ID exceeds its sinks'),
// and it validates that the rewire cannot create a cycle by requiring
// `to` to be a replica whose fanins predate the sink.
func (d *DAG) RewireFanin(sink, from, to int) error {
	if sink < 0 || sink >= len(d.gates) {
		return fmt.Errorf("subject: RewireFanin sink %d out of range [0,%d)", sink, len(d.gates))
	}
	if to < 0 || to >= len(d.gates) {
		return fmt.Errorf("subject: RewireFanin target %d out of range [0,%d)", to, len(d.gates))
	}
	g := &d.gates[sink]
	switch g.Type {
	case Nand2, Inv:
	default:
		return fmt.Errorf("subject: RewireFanin sink %d is a %s, not a base gate", sink, g.Type)
	}
	if to >= sink {
		// The only legal forward reference is a replica whose own
		// fanins all predate the sink — then no path from sink can
		// reach back through it, so acyclicity is preserved.
		if _, isReplica := d.replicaOf[to]; !isReplica {
			return fmt.Errorf("subject: RewireFanin target %d is not a replica and does not predate sink %d", to, sink)
		}
		for i := 0; i < d.gates[to].Type.NumInputs(); i++ {
			if fi := d.gates[to].In[i]; fi >= sink {
				return fmt.Errorf("subject: RewireFanin replica %d fanin %d does not predate sink %d", to, fi, sink)
			}
		}
	}
	n := g.Type.NumInputs()
	found := false
	for i := 0; i < n; i++ {
		if g.In[i] == from {
			g.In[i] = to
			found = true
		}
	}
	if !found {
		return fmt.Errorf("subject: RewireFanin sink %d has no fanin %d", sink, from)
	}
	d.fo.Store(nil)
	return nil
}

// topoDFS returns a genuine topological order (fanins before readers)
// by iterative post-order DFS over all gates in ascending-ID seed
// order. Only needed once replicas exist; without them ascending IDs
// are already topological and the cheaper identity order is used.
func (d *DAG) topoDFS() []int {
	order := make([]int, 0, len(d.gates))
	visited := make([]bool, len(d.gates))
	type frame struct {
		g, next int
	}
	var stack []frame
	for seed := 0; seed < len(d.gates); seed++ {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		stack = append(stack[:0], frame{g: seed})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			fis := d.Fanins(fr.g)
			if fr.next < len(fis) {
				fi := fis[fr.next]
				fr.next++
				if !visited[fi] {
					visited[fi] = true
					stack = append(stack, frame{g: fi})
				}
				continue
			}
			order = append(order, fr.g)
			stack = stack[:len(stack)-1]
		}
	}
	return order
}
