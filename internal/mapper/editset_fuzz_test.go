package mapper

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// fuzzTarget lazily builds the shared Prepared every fuzz execution
// attacks, plus an immutable snapshot of the design it must never
// corrupt.
var fuzzTarget struct {
	once sync.Once
	err  error
	prep *Prepared
	// gates / pos snapshot what the shared context looked like before
	// any fuzz input ran.
	gates []subject.Gate
	pos   []geom.Point
}

func fuzzPrepared(f *testing.F) *Prepared {
	fuzzTarget.once.Do(func() {
		fh, err := os.Open("../../examples/circuits/dec24.pla")
		if err != nil {
			fuzzTarget.err = err
			return
		}
		p, err := logic.ReadPLA(fh)
		fh.Close()
		if err != nil {
			fuzzTarget.err = err
			return
		}
		d, err := bench.BuildSubject(p, bench.Direct)
		if err != nil {
			fuzzTarget.err = err
			return
		}
		area := float64(d.BaseGateCount()) * 4.6 / 0.58
		layout, err := place.NewLayout(area, 1.0, library.RowHeight)
		if err != nil {
			fuzzTarget.err = err
			return
		}
		pos, poPads, _, _, err := SubjectPlacement(context.Background(), d, layout,
			place.Options{Seed: 1, RefinePasses: 8})
		if err != nil {
			fuzzTarget.err = err
			return
		}
		prep, err := Prepare(context.Background(), d, Input{Pos: pos, POPads: poPads},
			Options{Lib: library.Default()})
		if err != nil {
			fuzzTarget.err = err
			return
		}
		fuzzTarget.prep = prep
		for g := 0; g < d.NumGates(); g++ {
			fuzzTarget.gates = append(fuzzTarget.gates, *d.Gate(g))
		}
		fuzzTarget.pos = append([]geom.Point(nil), pos...)
	})
	if fuzzTarget.err != nil {
		f.Fatal(fuzzTarget.err)
	}
	return fuzzTarget.prep
}

// FuzzEditSet fuzzes the edit-set decoder and Invalidate together:
// arbitrary bytes must either fail to parse, fail validation with an
// error, or produce a coherent successor — and in every case the
// shared Prepared (its DAG and placement) must come through
// bit-identical. Out-of-range gate IDs, edits to dead or non-base
// gates, duplicate and overlapping edits, and empty sets are all
// reachable from the seed corpus.
func FuzzEditSet(f *testing.F) {
	seeds := []string{
		`{"edits":[{"op":"nudge","gate":12,"dx":1.5,"dy":-2}]}`,
		`{"edits":[{"op":"gate_func","gate":20,"new_type":"inv","new_in":[3]}]}`,
		`{"edits":[{"op":"gate_func","gate":20,"new_type":"nand2","new_in":[3,4]}]}`,
		`{"edits":[{"op":"reconnect","gate":20,"pin":1,"new_fanin":7}]}`,
		`{"edits":[{"op":"swap","gate":12,"other":13}]}`,
		`{"edits":[]}`,
		`{"edits":[{"op":"nudge","gate":-1,"dx":0,"dy":0}]}`,
		`{"edits":[{"op":"nudge","gate":999999,"dx":0,"dy":0}]}`,
		`{"edits":[{"op":"nudge","gate":12,"dx":1,"dy":1},{"op":"nudge","gate":12,"dx":2,"dy":2}]}`,
		`{"edits":[{"op":"swap","gate":12,"other":12}]}`,
		`{"edits":[{"op":"reconnect","gate":12,"pin":5,"new_fanin":0}]}`,
		`{"edits":[{"op":"gate_func","gate":12,"new_type":"nand2","new_in":[0,0]}]}`,
		`{"edits":[{"op":"nudge","gate":12}]}`,
		`{"edits":[{"op":"warp","gate":12}]}`,
		`not json`,
		`{"edits":[{"op":"nudge","gate":12,"dx":1,"dy":2}]}trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	prep := fuzzPrepared(f)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		es, err := ParseEditSet(data)
		if err == nil {
			// The wire form must round-trip through the canonical
			// marshaler.
			canon, merr := json.Marshal(es)
			if merr != nil {
				t.Fatalf("marshal of parsed set failed: %v", merr)
			}
			es2, perr := ParseEditSet(canon)
			if perr != nil {
				t.Fatalf("canonical form does not re-parse: %v\n%s", perr, canon)
			}
			if len(es2.Edits) != len(es.Edits) {
				t.Fatalf("round trip changed edit count: %d != %d", len(es2.Edits), len(es.Edits))
			}
			eco, ierr := prep.Invalidate(ctx, es)
			if ierr == nil {
				if eco.Prep == nil {
					t.Fatal("successful Invalidate returned nil successor")
				}
				if eco.Trees != eco.ReusedTrees+len(eco.DirtyRoots) {
					t.Fatalf("tree bookkeeping inconsistent: %d trees, %d reused, %d dirty",
						eco.Trees, eco.ReusedTrees, len(eco.DirtyRoots))
				}
			}
		}
		// Whatever happened, the shared Prepared is untouched.
		d := prep.DAG()
		for g := range fuzzTarget.gates {
			if *d.Gate(g) != fuzzTarget.gates[g] {
				t.Fatalf("shared DAG corrupted at gate %d", g)
			}
		}
		pos := prep.Pos()
		for i := range fuzzTarget.pos {
			if pos[i] != fuzzTarget.pos[i] {
				t.Fatalf("shared placement corrupted at gate %d", i)
			}
		}
	})
}
