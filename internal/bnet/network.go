// Package bnet implements the multi-level Boolean network substrate:
// nodes holding sum-of-products expressions over other nodes, and the
// shared-divisor extraction (FastExtract, then Sweep) that stands in
// for SIS's technology-independent optimization.
//
// The network is the input to technology-independent decomposition
// (package subject) and, through the extraction pass, the "SIS"
// baseline of the paper's Tables 1, 3 and 5: aggressive sharing that
// minimizes literals but creates high-fanout nodes whose placement
// spreads fanins far apart — the congestion pathology the paper
// measures.
package bnet

import (
	"fmt"
	"math/rand"
)

// NodeID identifies a node within one Network. IDs are dense indices
// into the network's node table and are never reused.
type NodeID int

// Invalid is the zero-value-adjacent sentinel for "no node".
const Invalid NodeID = -1

// Kind classifies network nodes.
type Kind int

const (
	// KindPI is a primary input.
	KindPI Kind = iota
	// KindInternal is a logic node with a SOP function.
	KindInternal
	// KindPO is a primary output; its function is a single literal
	// referencing the driving node.
	KindPO
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPI:
		return "pi"
	case KindInternal:
		return "internal"
	case KindPO:
		return "po"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one vertex of the Boolean network.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
	// Fn is the node's sum-of-products over other nodes' outputs.
	// Empty for PIs. For POs it is a single one-literal cube.
	Fn Sop
}

// Network is a DAG of Boolean nodes.
type Network struct {
	nodes  []*Node
	byName map[string]NodeID
	pis    []NodeID
	pos    []NodeID
	// fanouts is rebuilt lazily; nil means stale.
	fanouts [][]NodeID
}

// New returns an empty network.
func New() *Network {
	return &Network{byName: make(map[string]NodeID)}
}

// AddPI adds a primary input with the given name.
func (n *Network) AddPI(name string) NodeID {
	return n.add(&Node{Name: name, Kind: KindPI})
}

// AddInternal adds a logic node with function fn.
func (n *Network) AddInternal(name string, fn Sop) NodeID {
	return n.add(&Node{Name: name, Kind: KindInternal, Fn: fn})
}

// AddPO adds a primary output named name driven by driver with the
// given phase (neg true means the output is the complement of driver;
// decomposition later inserts the inverter).
func (n *Network) AddPO(name string, driver NodeID, neg bool) NodeID {
	return n.add(&Node{Name: name, Kind: KindPO, Fn: Sop{{Lit{Node: driver, Neg: neg}}}})
}

func (n *Network) add(node *Node) NodeID {
	if _, dup := n.byName[node.Name]; dup {
		panic(fmt.Sprintf("bnet: duplicate node name %q", node.Name))
	}
	node.ID = NodeID(len(n.nodes))
	n.nodes = append(n.nodes, node)
	n.byName[node.Name] = node.ID
	switch node.Kind {
	case KindPI:
		n.pis = append(n.pis, node.ID)
	case KindPO:
		n.pos = append(n.pos, node.ID)
	}
	n.fanouts = nil
	return node.ID
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Lookup returns the node ID for a name.
func (n *Network) Lookup(name string) (NodeID, bool) {
	id, ok := n.byName[name]
	return id, ok
}

// NumNodes returns the total node count including PIs and POs.
func (n *Network) NumNodes() int { return len(n.nodes) }

// SetFn replaces the function of an internal node and invalidates the
// fanout cache.
func (n *Network) SetFn(id NodeID, fn Sop) {
	node := n.nodes[id]
	if node.Kind != KindInternal && node.Kind != KindPO {
		panic("bnet: SetFn on a primary input")
	}
	node.Fn = fn
	n.fanouts = nil
}

// Fanins returns the sorted support of node id (the distinct nodes its
// function references).
func (n *Network) Fanins(id NodeID) []NodeID {
	return n.nodes[id].Fn.Support()
}

// Fanouts returns the nodes whose functions reference id. The result
// is cached until the network is mutated.
func (n *Network) Fanouts(id NodeID) []NodeID {
	if n.fanouts == nil {
		n.rebuildFanouts()
	}
	return n.fanouts[id]
}

func (n *Network) rebuildFanouts() {
	n.fanouts = make([][]NodeID, len(n.nodes))
	for _, node := range n.nodes {
		for _, fi := range node.Fn.Support() {
			n.fanouts[fi] = append(n.fanouts[fi], node.ID)
		}
	}
}

// TopoOrder returns all node IDs in topological order (fanins before
// fanouts). It returns an error if the network contains a cycle.
func (n *Network) TopoOrder() ([]NodeID, error) {
	const (
		unvisited = 0
		active    = 1
		done      = 2
	)
	state := make([]byte, len(n.nodes))
	order := make([]NodeID, 0, len(n.nodes))
	// Iterative DFS to survive deep networks.
	type frame struct {
		id   NodeID
		next int
	}
	var stack []frame
	var fanins [][]NodeID // memoized per call
	fanins = make([][]NodeID, len(n.nodes))
	supp := func(id NodeID) []NodeID {
		if fanins[id] == nil {
			fanins[id] = n.Fanins(id)
			if fanins[id] == nil {
				fanins[id] = []NodeID{}
			}
		}
		return fanins[id]
	}
	for root := range n.nodes {
		if state[root] != unvisited {
			continue
		}
		stack = append(stack[:0], frame{id: NodeID(root)})
		state[root] = active
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			deps := supp(f.id)
			if f.next < len(deps) {
				child := deps[f.next]
				f.next++
				switch state[child] {
				case unvisited:
					state[child] = active
					stack = append(stack, frame{id: child})
				case active:
					return nil, fmt.Errorf("bnet: cycle through node %q", n.nodes[child].Name)
				}
				continue
			}
			state[f.id] = done
			order = append(order, f.id)
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// NumLiterals returns the total literal count over all internal nodes,
// the SIS area proxy.
func (n *Network) NumLiterals() int {
	total := 0
	for _, node := range n.nodes {
		if node.Kind == KindInternal {
			total += node.Fn.NumLiterals()
		}
	}
	return total
}

// Eval evaluates the network for a full PI assignment, returning the
// value of every node. piValues is indexed by position in PIs().
func (n *Network) Eval(piValues []bool) ([]bool, error) {
	if len(piValues) != len(n.pis) {
		return nil, fmt.Errorf("bnet: %d PI values for %d PIs", len(piValues), len(n.pis))
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	val := make([]bool, len(n.nodes))
	piIndex := make(map[NodeID]int, len(n.pis))
	for i, id := range n.pis {
		piIndex[id] = i
	}
	for _, id := range order {
		node := n.nodes[id]
		switch node.Kind {
		case KindPI:
			val[id] = piValues[piIndex[id]]
		default:
			val[id] = node.Fn.Eval(val)
		}
	}
	return val, nil
}

// EvalOutputs evaluates the network and returns only the PO values in
// PO order.
func (n *Network) EvalOutputs(piValues []bool) ([]bool, error) {
	val, err := n.Eval(piValues)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(n.pos))
	for i, id := range n.pos {
		out[i] = val[id]
	}
	return out, nil
}

// Sweep removes internal nodes that no PO transitively depends on and
// collapses internal nodes whose function is a single positive literal
// (pure buffers) into their fanouts. It returns the number of nodes
// removed or collapsed.
func (n *Network) Sweep() int {
	removed := 0
	// Collapse single-positive-literal internal nodes.
	for _, node := range n.nodes {
		if node.Kind != KindInternal || len(node.Fn) != 1 || len(node.Fn[0]) != 1 || node.Fn[0][0].Neg {
			continue
		}
		target := node.Fn[0][0].Node
		for _, fo := range n.Fanouts(node.ID) {
			n.nodes[fo].Fn = n.nodes[fo].Fn.Rename(node.ID, target)
		}
		n.fanouts = nil
		node.Fn = nil // now dangling; dead-node pass removes it
		removed++
	}
	// Mark liveness from POs.
	live := make([]bool, len(n.nodes))
	var mark func(NodeID)
	mark = func(id NodeID) {
		if live[id] {
			return
		}
		live[id] = true
		for _, fi := range n.Fanins(id) {
			mark(fi)
		}
	}
	for _, po := range n.pos {
		mark(po)
	}
	for _, node := range n.nodes {
		if node.Kind == KindInternal && !live[node.ID] && node.Fn != nil {
			node.Fn = nil
			removed++
		}
	}
	return removed
}

// InternalIDs returns the IDs of live internal nodes in ascending
// order.
func (n *Network) InternalIDs() []NodeID {
	var out []NodeID
	for _, node := range n.nodes {
		if node.Kind == KindInternal && node.Fn != nil {
			out = append(out, node.ID)
		}
	}
	return out
}

// CheckEquivalence compares two networks with identical PI/PO counts
// on vectors random assignments drawn from rng, returning an error on
// the first mismatch. It is the light-weight verification used by the
// optimization tests.
func CheckEquivalence(a, b *Network, vectors int, rng *rand.Rand) error {
	if len(a.pis) != len(b.pis) || len(a.pos) != len(b.pos) {
		return fmt.Errorf("bnet: interface mismatch %d/%d vs %d/%d",
			len(a.pis), len(a.pos), len(b.pis), len(b.pos))
	}
	assign := make([]bool, len(a.pis))
	for v := 0; v < vectors; v++ {
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		av, err := a.EvalOutputs(assign)
		if err != nil {
			return err
		}
		bv, err := b.EvalOutputs(assign)
		if err != nil {
			return err
		}
		for o := range av {
			if av[o] != bv[o] {
				return fmt.Errorf("bnet: outputs differ at vector %d output %d", v, o)
			}
		}
	}
	return nil
}
