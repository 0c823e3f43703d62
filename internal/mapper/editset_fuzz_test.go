package mapper

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/obs"
	"casyn/internal/partition"
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
	// st is a cover of prep at fuzzK that every fuzz execution's delta
	// cover starts from.
	st *CoverState
	// gates / pos snapshot what the shared context looked like before
	// any fuzz input ran.
	gates []subject.Gate
	pos   []geom.Point
}

// fuzzK is the K the fuzz target's delta covers run at: high enough
// that the wire terms, and so every position change, reach the DP.
const fuzzK = 1

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
		_, st, err := MapStateful(context.Background(), prep, fuzzK, nil)
		if err != nil {
			fuzzTarget.err = err
			return
		}
		fuzzTarget.prep, fuzzTarget.st = prep, st
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
// bit-identical. A coherent successor's delta cover must equal a full
// cover of it and solve no more DP vertices than its dirty trees hold,
// its patched netlist must equal the reference full rebuild of that
// full cover, and its edit-local re-partition must equal a full
// partition of the edited design (fathers, roots, trees).
// Out-of-range gate IDs, edits to dead or non-base gates, duplicate
// and overlapping edits, and empty sets are all reachable from the
// seed corpus.
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
		// Edits whose patch must walk segments its parent also has: a
		// copied segment would read a gate that lost its signal, a
		// duplicate whose solution changed, or a gate another segment
		// now duplicates first.
		`{"edits":[{"op":"gate_func","gate":10,"new_type":"nand2","new_in":[0,2]}]}`,
		`{"edits":[{"op":"gate_func","gate":8,"new_type":"inv","new_in":[4]},{"op":"gate_func","gate":11,"new_type":"nand2","new_in":[6,1]}]}`,
		`{"edits":[{"op":"reconnect","gate":14,"pin":0,"new_fanin":6},{"op":"nudge","gate":4,"dx":-9.7,"dy":17.6}]}`,
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
				succ := &eco.Prep.Prepared
				full, err := partition.Partition(partition.Input{DAG: succ.dag, Pos: succ.in.Pos, POPads: succ.in.POPads}, succ.opts.Method)
				if err != nil {
					t.Fatal(err)
				}
				if err := diffForests(succ.forest, full); err != nil {
					t.Fatalf("edit-local re-partition differs from a full partition: %v", err)
				}
				dirtyGates := 0
				for ti, tr := range eco.Prep.forest.Trees() {
					if eco.Prep.rebuild.Dirty[ti] {
						dirtyGates += len(tr.Gates)
					}
				}
				if eco.ReenumeratedGates > dirtyGates || (len(eco.DirtyRoots) == 0 && eco.ReenumeratedGates != 0) {
					t.Fatalf("%d gates re-enumerated, but the %d dirty trees hold %d",
						eco.ReenumeratedGates, len(eco.DirtyRoots), dirtyGates)
				}
				rec := obs.New()
				res, st, err := MapECO(obs.WithRecorder(ctx, rec), eco, fuzzTarget.st, fuzzK)
				if err != nil {
					t.Fatalf("MapECO: %v", err)
				}
				fullCov, err := cover.CoverWithPrefix(ctx, succ.dag, succ.forest, succ.prefix, succ.coverOptions(fuzzK))
				if err != nil {
					t.Fatal(err)
				}
				if err := diffCovers(st.cov, fullCov); err != nil {
					t.Fatalf("delta cover differs from a full cover: %v", err)
				}
				if err := diffReconstruct(succ, fullCov, res); err != nil {
					t.Fatalf("patched netlist differs from a full rebuild of the full cover: %v", err)
				}
				if solved := rec.Snapshot().Counters["cover.solutions"]; solved > int64(dirtyGates) {
					t.Fatalf("delta cover solved %d DP vertices, but the dirty trees hold %d", solved, dirtyGates)
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

// diffForests describes the first difference between two forests'
// fathers, roots, trees and root-of maps.
func diffForests(got, want *partition.Forest) error {
	if !slices.Equal(got.Father, want.Father) {
		return fmt.Errorf("fathers differ")
	}
	if !slices.Equal(got.Roots, want.Roots) {
		return fmt.Errorf("roots %v, want %v", got.Roots, want.Roots)
	}
	gt, wt := got.Trees(), want.Trees()
	if len(gt) != len(wt) {
		return fmt.Errorf("%d trees, want %d", len(gt), len(wt))
	}
	for i := range wt {
		if gt[i].Root != wt[i].Root || !slices.Equal(gt[i].Gates, wt[i].Gates) {
			return fmt.Errorf("tree %d differs (root %d, want %d)", i, gt[i].Root, wt[i].Root)
		}
	}
	if !slices.Equal(got.RootOf(), want.RootOf()) {
		return fmt.Errorf("root-of maps differ")
	}
	return nil
}
