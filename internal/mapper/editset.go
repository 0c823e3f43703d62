package mapper

// EditSet is the ECO edit vocabulary: the local netlist and placement
// changes the incremental pipeline (Prepared.Invalidate → CoverDelta →
// territory-scoped rerouting) absorbs without a resynthesis. Edits are
// validated as a set against the Prepared they will be applied to and
// then applied to private clones of its DAG and placement — an invalid
// set errors before anything is touched, so a shared Prepared can
// never be corrupted by a bad edit.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"casyn/internal/geom"
	"casyn/internal/subject"
)

// EditKind identifies one ECO edit operation.
type EditKind int

const (
	// EditGateFunc rewrites a gate's base function (NAND2 ↔ INV) with
	// explicit new fanins.
	EditGateFunc EditKind = iota
	// EditReconnect replaces one fanin pin of a gate with a different
	// driver (a net reconnect).
	EditReconnect
	// EditNudge moves a gate's placement by a delta.
	EditNudge
	// EditSwap exchanges the placement positions of two gates.
	EditSwap
)

// String implements fmt.Stringer (also the JSON "op" vocabulary).
func (k EditKind) String() string {
	switch k {
	case EditGateFunc:
		return "gate_func"
	case EditReconnect:
		return "reconnect"
	case EditNudge:
		return "nudge"
	case EditSwap:
		return "swap"
	default:
		return fmt.Sprintf("edit(%d)", int(k))
	}
}

// Edit is one ECO edit. Gate always names the target; the remaining
// fields depend on Kind.
type Edit struct {
	Kind EditKind
	Gate int
	// NewType / NewIn parameterize EditGateFunc: the replacement base
	// function and its fanin IDs (NewIn[0] for INV, NewIn[0:2] for
	// NAND2).
	NewType subject.GateType
	NewIn   [2]int
	// Pin / NewFanin parameterize EditReconnect: the fanin position to
	// rewrite and the new driver gate.
	Pin      int
	NewFanin int
	// DX / DY parameterize EditNudge (placement units, µm).
	DX, DY float64
	// Other parameterizes EditSwap: the gate to exchange positions with.
	Other int
}

// EditSet is an ordered batch of edits applied atomically.
type EditSet struct {
	Edits []Edit
}

// editJSON is the wire form of one edit.
type editJSON struct {
	Op       string   `json:"op"`
	Gate     int      `json:"gate"`
	NewType  string   `json:"new_type,omitempty"`
	NewIn    []int    `json:"new_in,omitempty"`
	Pin      *int     `json:"pin,omitempty"`
	NewFanin *int     `json:"new_fanin,omitempty"`
	DX       *float64 `json:"dx,omitempty"`
	DY       *float64 `json:"dy,omitempty"`
	Other    *int     `json:"other,omitempty"`
}

// editSetJSON is the wire form of an edit set.
type editSetJSON struct {
	Edits []editJSON `json:"edits"`
}

// MaxEditSetBytes bounds an inline edit-set document.
const MaxEditSetBytes = 1 << 20

// ParseEditSet decodes the JSON edit-set form:
//
//	{"edits": [
//	  {"op": "gate_func", "gate": 12, "new_type": "inv", "new_in": [3]},
//	  {"op": "reconnect", "gate": 12, "pin": 1, "new_fanin": 7},
//	  {"op": "nudge", "gate": 12, "dx": 1.5, "dy": -2},
//	  {"op": "swap", "gate": 12, "other": 40}]}
//
// Unknown fields and trailing garbage are rejected; size is bounded by
// MaxEditSetBytes. Decoding checks only the document's shape —
// Validate (against a concrete Prepared) checks gate IDs and set
// coherence.
func ParseEditSet(data []byte) (EditSet, error) {
	if len(data) > MaxEditSetBytes {
		return EditSet{}, fmt.Errorf("eco: edit set exceeds %d bytes", MaxEditSetBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var raw editSetJSON
	if err := dec.Decode(&raw); err != nil {
		return EditSet{}, fmt.Errorf("eco: bad edit set: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return EditSet{}, fmt.Errorf("eco: trailing data after edit set")
	}
	es := EditSet{Edits: make([]Edit, 0, len(raw.Edits))}
	for i, ej := range raw.Edits {
		e := Edit{Gate: ej.Gate}
		switch ej.Op {
		case "gate_func":
			e.Kind = EditGateFunc
			switch ej.NewType {
			case "nand2":
				e.NewType = subject.Nand2
			case "inv":
				e.NewType = subject.Inv
			default:
				return EditSet{}, fmt.Errorf("eco: edit %d: new_type %q is not a base gate", i, ej.NewType)
			}
			if len(ej.NewIn) != e.NewType.NumInputs() {
				return EditSet{}, fmt.Errorf("eco: edit %d: %s takes %d fanins, got %d",
					i, ej.NewType, e.NewType.NumInputs(), len(ej.NewIn))
			}
			e.NewIn = [2]int{-1, -1}
			copy(e.NewIn[:], ej.NewIn)
		case "reconnect":
			if ej.Pin == nil || ej.NewFanin == nil {
				return EditSet{}, fmt.Errorf("eco: edit %d: reconnect needs pin and new_fanin", i)
			}
			e.Kind = EditReconnect
			e.Pin = *ej.Pin
			e.NewFanin = *ej.NewFanin
		case "nudge":
			if ej.DX == nil || ej.DY == nil {
				return EditSet{}, fmt.Errorf("eco: edit %d: nudge needs dx and dy", i)
			}
			e.Kind = EditNudge
			e.DX, e.DY = *ej.DX, *ej.DY
		case "swap":
			if ej.Other == nil {
				return EditSet{}, fmt.Errorf("eco: edit %d: swap needs other", i)
			}
			e.Kind = EditSwap
			e.Other = *ej.Other
		default:
			return EditSet{}, fmt.Errorf("eco: edit %d: unknown op %q", i, ej.Op)
		}
		es.Edits = append(es.Edits, e)
	}
	return es, nil
}

// MarshalJSON emits the wire form ParseEditSet reads.
func (es EditSet) MarshalJSON() ([]byte, error) {
	raw := editSetJSON{Edits: make([]editJSON, 0, len(es.Edits))}
	for _, e := range es.Edits {
		ej := editJSON{Op: e.Kind.String(), Gate: e.Gate}
		switch e.Kind {
		case EditGateFunc:
			ej.NewType = e.NewType.String()
			ej.NewIn = append([]int(nil), e.NewIn[:e.NewType.NumInputs()]...)
		case EditReconnect:
			pin, nf := e.Pin, e.NewFanin
			ej.Pin, ej.NewFanin = &pin, &nf
		case EditNudge:
			dx, dy := e.DX, e.DY
			ej.DX, ej.DY = &dx, &dy
		case EditSwap:
			other := e.Other
			ej.Other = &other
		default:
			return nil, fmt.Errorf("eco: unknown edit kind %d", int(e.Kind))
		}
		raw.Edits = append(raw.Edits, ej)
	}
	return json.Marshal(raw)
}

// validate checks the edit set against a concrete subject DAG and its
// forest's tree membership rootOf (partitioning puts exactly the live
// base gates in trees), without modifying anything: every target must
// be a live base gate, structural rewrites must preserve
// the topological-ID invariant, placement deltas must be finite, and
// no gate may be the target of two structural edits or of two
// placement edits (a swap claims both of its gates). An empty set is
// an error — ECO semantics are "apply this change", and an empty
// change is a caller bug worth surfacing.
func (es EditSet) validate(d *subject.DAG, rootOf []int) error {
	if len(es.Edits) == 0 {
		return fmt.Errorf("eco: empty edit set")
	}
	baseTarget := func(i, g int) error {
		if g < 0 || g >= d.NumGates() {
			return fmt.Errorf("eco: edit %d: gate %d out of range [0,%d)", i, g, d.NumGates())
		}
		if t := d.Gate(g).Type; t != subject.Nand2 && t != subject.Inv {
			return fmt.Errorf("eco: edit %d: gate %d is a %s, not an editable base gate", i, g, t)
		}
		if rootOf[g] < 0 {
			return fmt.Errorf("eco: edit %d: gate %d is dead (drives no output)", i, g)
		}
		return nil
	}
	structTarget := make(map[int]int) // gate → edit index
	posTarget := make(map[int]int)
	claimStruct := func(i, g int) error {
		if j, dup := structTarget[g]; dup {
			return fmt.Errorf("eco: edit %d: gate %d already structurally edited by edit %d", i, g, j)
		}
		structTarget[g] = i
		return nil
	}
	claimPos := func(i, g int) error {
		if j, dup := posTarget[g]; dup {
			return fmt.Errorf("eco: edit %d: gate %d already moved by edit %d", i, g, j)
		}
		posTarget[g] = i
		return nil
	}
	for i, e := range es.Edits {
		switch e.Kind {
		case EditGateFunc:
			if err := baseTarget(i, e.Gate); err != nil {
				return err
			}
			if err := claimStruct(i, e.Gate); err != nil {
				return err
			}
			switch e.NewType {
			case subject.Nand2, subject.Inv:
			default:
				return fmt.Errorf("eco: edit %d: new type %s is not a base gate", i, e.NewType)
			}
			for p := 0; p < e.NewType.NumInputs(); p++ {
				if err := checkFanin(d, i, e.Gate, e.NewIn[p]); err != nil {
					return err
				}
			}
			if e.NewType == subject.Nand2 && e.NewIn[0] == e.NewIn[1] {
				return fmt.Errorf("eco: edit %d: NAND2 with identical fanins %d", i, e.NewIn[0])
			}
		case EditReconnect:
			if err := baseTarget(i, e.Gate); err != nil {
				return err
			}
			if err := claimStruct(i, e.Gate); err != nil {
				return err
			}
			nin := d.Gate(e.Gate).Type.NumInputs()
			if e.Pin < 0 || e.Pin >= nin {
				return fmt.Errorf("eco: edit %d: pin %d out of range for %s", i, e.Pin, d.Gate(e.Gate).Type)
			}
			if err := checkFanin(d, i, e.Gate, e.NewFanin); err != nil {
				return err
			}
			in := d.Gate(e.Gate).In
			in[e.Pin] = e.NewFanin
			if nin == 2 && in[0] == in[1] {
				return fmt.Errorf("eco: edit %d: reconnect makes NAND2 %d fanins identical", i, e.Gate)
			}
		case EditNudge:
			if err := baseTarget(i, e.Gate); err != nil {
				return err
			}
			if err := claimPos(i, e.Gate); err != nil {
				return err
			}
			if !finite(e.DX) || !finite(e.DY) {
				return fmt.Errorf("eco: edit %d: non-finite nudge (%g, %g)", i, e.DX, e.DY)
			}
		case EditSwap:
			if err := baseTarget(i, e.Gate); err != nil {
				return err
			}
			if err := baseTarget(i, e.Other); err != nil {
				return err
			}
			if e.Gate == e.Other {
				return fmt.Errorf("eco: edit %d: swap of gate %d with itself", i, e.Gate)
			}
			if err := claimPos(i, e.Gate); err != nil {
				return err
			}
			if err := claimPos(i, e.Other); err != nil {
				return err
			}
		default:
			return fmt.Errorf("eco: edit %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// checkFanin validates one new fanin reference of gate g.
func checkFanin(d *subject.DAG, i, g, fanin int) error {
	if fanin < 0 || fanin >= d.NumGates() {
		return fmt.Errorf("eco: edit %d: fanin %d out of range [0,%d)", i, fanin, d.NumGates())
	}
	if fanin >= g {
		return fmt.Errorf("eco: edit %d: fanin %d not before gate %d (IDs must stay topological)", i, fanin, g)
	}
	switch d.Gate(fanin).Type {
	case subject.PI, subject.Nand2, subject.Inv, subject.Const0, subject.Const1:
		return nil
	default:
		return fmt.Errorf("eco: edit %d: fanin %d has unroutable type %s", i, fanin, d.Gate(fanin).Type)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// apply mutates the (already cloned) DAG and position slice, returning
// the structurally edited gate IDs and the moved gate IDs: the gates
// whose position really changed, so neither a zero nudge nor a swap of
// two co-located gates counts. The set must have passed validate
// against the originals.
func (es EditSet) apply(d *subject.DAG, pos []geom.Point) (structEdited, moved []int, err error) {
	for i, e := range es.Edits {
		switch e.Kind {
		case EditGateFunc:
			if err := d.SetGate(e.Gate, e.NewType, e.NewIn); err != nil {
				return nil, nil, fmt.Errorf("eco: edit %d: %w", i, err)
			}
			structEdited = append(structEdited, e.Gate)
		case EditReconnect:
			g := d.Gate(e.Gate)
			in := g.In
			in[e.Pin] = e.NewFanin
			if err := d.SetGate(e.Gate, g.Type, in); err != nil {
				return nil, nil, fmt.Errorf("eco: edit %d: %w", i, err)
			}
			structEdited = append(structEdited, e.Gate)
		case EditNudge:
			old := pos[e.Gate]
			pos[e.Gate] = geom.Pt(old.X+e.DX, old.Y+e.DY)
			if pos[e.Gate] != old {
				moved = append(moved, e.Gate)
			}
		case EditSwap:
			if pos[e.Gate] != pos[e.Other] {
				pos[e.Gate], pos[e.Other] = pos[e.Other], pos[e.Gate]
				moved = append(moved, e.Gate, e.Other)
			}
		}
	}
	return structEdited, moved, nil
}
