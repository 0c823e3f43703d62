package subject

import (
	"fmt"
	"slices"
)

// Clone returns an independent deep copy of the DAG. The copy shares
// no mutable state with the original: gates, PI and output lists are
// duplicated, and a built reader index is shared read-only until one
// side's SetGate copies it. The structural-hash table is not copied:
// the clone starts with an empty one, as SetGate would leave it, so
// later Add* calls on the clone stay correct but do not re-share the
// original's structure. ECO edits mutate a clone so the original can
// keep serving concurrent readers.
func (d *DAG) Clone() *DAG {
	cp := &DAG{
		gates:   append([]Gate(nil), d.gates...),
		pis:     append([]int(nil), d.pis...),
		outputs: append([]Output(nil), d.outputs...),
		hash:    make(map[[3]int]int),
	}
	if len(d.replicaOf) > 0 {
		cp.replicaOf = make(map[int]int, len(d.replicaOf))
		for k, v := range d.replicaOf {
			cp.replicaOf[k] = v
		}
	}
	if x := d.fo.Load(); x != nil {
		x.shared.Store(true)
		cp.fo.Store(x)
	}
	return cp
}

// SetGate rewrites gate id in place to the given base-gate type and
// fanins. It is the primitive under ECO edits (function changes and
// net reconnects), and deliberately bypasses structural hashing: an
// edit may duplicate existing structure, so the whole hash table is
// dropped rather than left pointing at stale shapes (later Add* calls
// stay correct, they just may not re-share).
//
// Only Nand2 and Inv targets are legal — PIs, constants, and output
// markers are not rewritable vertices. Every fanin must be an existing
// gate with ID < id, which preserves the DAG-wide invariant that IDs
// are topologically ordered (Eval and TopoOrder iterate by ID).
func (d *DAG) SetGate(id int, t GateType, in [2]int) error {
	if id < 0 || id >= len(d.gates) {
		return fmt.Errorf("subject: SetGate id %d out of range [0,%d)", id, len(d.gates))
	}
	switch d.gates[id].Type {
	case Nand2, Inv:
	default:
		return fmt.Errorf("subject: SetGate target %d is a %s, not a base gate", id, d.gates[id].Type)
	}
	switch t {
	case Nand2, Inv:
	default:
		return fmt.Errorf("subject: SetGate new type %s is not a base gate", t)
	}
	n := t.NumInputs()
	for i := 0; i < n; i++ {
		if in[i] < 0 || in[i] >= len(d.gates) {
			return fmt.Errorf("subject: SetGate fanin %d out of range [0,%d)", in[i], len(d.gates))
		}
		if in[i] >= id {
			return fmt.Errorf("subject: SetGate fanin %d not before gate %d (IDs must stay topological)", in[i], id)
		}
	}
	if t == Nand2 && in[0] == in[1] {
		return fmt.Errorf("subject: SetGate NAND2 %d with identical fanins %d (fold to INV instead)", id, in[0])
	}
	g := Gate{ID: id, Type: t, In: [2]int{-1, -1}}
	copy(g.In[:n], in[:n])
	old := d.gates[id]
	d.gates[id] = g
	d.hash = make(map[[3]int]int)
	if x := d.fo.Load(); x != nil {
		// Patch the reader index, on a private copy if a clone shares
		// it: id stops reading its old fanins and starts reading its
		// new ones.
		if x.shared.Load() {
			x = &fanoutIndex{off: slices.Clone(x.off), all: slices.Clone(x.all)}
			d.fo.Store(x)
		}
		for _, fi := range old.In[:old.Type.NumInputs()] {
			x.moveReader(fi, id, false)
		}
		for _, fi := range g.In[:n] {
			x.moveReader(fi, id, true)
		}
	}
	return nil
}

// moveReader inserts reader r into gate g's fanout list (add) or
// removes it, keeping the list ascending and shifting the lists after
// g's.
func (x *fanoutIndex) moveReader(g, r int, add bool) {
	lo, hi := x.off[g], x.off[g+1]
	at, found := slices.BinarySearch(x.all[lo:hi], r)
	p := int(lo) + at
	delta := int32(1)
	if add {
		x.all = slices.Insert(x.all, p, r)
	} else {
		if !found {
			return
		}
		x.all = slices.Delete(x.all, p, p+1)
		delta = -1
	}
	for i := g + 1; i < len(x.off); i++ {
		x.off[i] += delta
	}
}
