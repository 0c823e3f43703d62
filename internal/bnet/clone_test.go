package bnet

// Clone returns a deep copy of n: tests snapshot a network with it
// before a pass rewrites it in place, then check the two agree.
func (n *Network) Clone() *Network {
	out := New()
	out.nodes = make([]*Node, len(n.nodes))
	for i, node := range n.nodes {
		cp := &Node{ID: node.ID, Name: node.Name, Kind: node.Kind, Fn: node.Fn.Clone()}
		out.nodes[i] = cp
		out.byName[cp.Name] = cp.ID
	}
	out.pis = append([]NodeID(nil), n.pis...)
	out.pos = append([]NodeID(nil), n.pos...)
	return out
}

// Clone returns a deep copy of s.
func (s Sop) Clone() Sop {
	out := make(Sop, len(s))
	for i, c := range s {
		out[i] = c.Clone()
	}
	return out
}
