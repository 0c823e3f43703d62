package flow

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"casyn/internal/mapper"
	"casyn/internal/obs"
	"casyn/internal/verify"
)

// TestECOChainDefaultLibrary pins the nil-Lib contract: a caller that
// never sets Config.Lib (meaning "the default library") must be able
// to chain RunStateful → RunECO → RunECO. library.Default() allocates
// per call, so this holds only because prefixes match libraries by
// content.
func TestECOChainDefaultLibrary(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.FreshPlacement = false
	ctx := context.Background()
	if err := PrepareMapping(ctx, pc, cfg); err != nil {
		t.Fatal(err)
	}
	// A stateful run with the same nil-Lib config must reuse the prefix
	// already on pc, not rebuild it.
	_, st, err := RunStateful(ctx, pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Prep != pc.Prep {
		t.Error("nil-Lib RunStateful rebuilt a compatible prefix")
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2; i++ {
		edits := mapper.RandomEdits(st.Prep, rng, 1)
		it, next, err := RunECO(ctx, pc, st, edits, cfg)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if it.NumCells == 0 {
			t.Fatalf("edit %d: degenerate iteration", i)
		}
		st = next
	}

	// Fast mode rides the same library.
	cfg.FastECORoute = true
	if _, _, err := RunECO(ctx, pc, st, mapper.RandomEdits(st.Prep, rng, 1), cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFastECOChainAligned chains fast-mode edits, including edits that
// change the mapped cell count, and checks that every edit places
// incrementally (no eco.place_full) and stays local (few cells
// re-placed, few nets ripped), that every netlist is equivalent to its
// edited subject, and that the chain is byte-identical at 1 and 4
// workers. Routing is incremental by construction: RouteECO has no
// full-reroute fallback.
func TestFastECOChainAligned(t *testing.T) {
	type step struct {
		it Iteration
		st *ECOState
	}
	chain := func(workers int) []step {
		pc, cfg := prepared(t, 0.55)
		cfg.FreshPlacement = false
		cfg.FastECORoute = true
		cfg.Workers = workers
		ctx := obs.WithRecorder(context.Background(), obs.New())
		it, st, err := RunStateful(ctx, pc, 0.001, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := []step{{it, st}}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 12; i++ {
			it, next, err := RunECO(ctx, pc, st, mapper.RandomEdits(st.Prep, rng, 1), cfg)
			if err != nil {
				t.Fatalf("workers=%d edit %d: %v", workers, i, err)
			}
			c := it.Metrics.Events.Counters
			if c["eco.place_full"] != 0 || c["eco.place_incremental"] != 1 {
				t.Errorf("workers=%d edit %d: place_full=%d place_incremental=%d, want 0, 1",
					workers, i, c["eco.place_full"], c["eco.place_incremental"])
			}
			// A single-gate edit stays local: alignment by subject gate
			// keeps all but a few cells and nets, whatever the indices.
			if moved, ripped, kept := c["eco.place_moved_cells"], c["eco.route_nets_ripped"], c["eco.route_nets_kept"]; 10*moved > int64(it.NumCells) || 10*ripped > ripped+kept {
				t.Errorf("workers=%d edit %d: re-placed %d of %d cells and ripped %d of %d nets",
					workers, i, moved, it.NumCells, ripped, ripped+kept)
			}
			rep, err := verify.Equivalent(ctx, next.Prep.DAG(), it.Netlist, verify.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Equivalent {
				t.Fatalf("workers=%d edit %d: netlist differs from its edited subject: %s", workers, i, rep)
			}
			out = append(out, step{it, next})
			st = next
		}
		return out
	}
	serial, parallel := chain(1), chain(4)
	countChanged := 0
	for i := range serial {
		if i > 0 && serial[i].it.NumCells != serial[i-1].it.NumCells {
			countChanged++
		}
		sameIteration(t, fmt.Sprintf("edit %d", i), serial[i].it, parallel[i].it)
		if !reflect.DeepEqual(serial[i].st.Place, parallel[i].st.Place) {
			t.Errorf("edit %d: placements diverged between 1 and 4 workers", i)
		}
	}
	if countChanged < 3 {
		t.Fatalf("only %d edits changed the cell count; the aligned path was not exercised", countChanged)
	}
}

// TestChainedDriversPlaceSeeded pins the placement policy on the
// drivers themselves: RunStateful, exact and fast RunECO, and
// RunAdaptive place seeded whatever Config.FreshPlacement says, so no
// caller has to remember to turn it off.
func TestChainedDriversPlaceSeeded(t *testing.T) {
	pc, seeded := prepared(t, 0.55)
	seeded.FreshPlacement = false
	fresh := seeded
	fresh.FreshPlacement = true
	ctx := context.Background()
	if err := PrepareMapping(ctx, pc, seeded); err != nil {
		t.Fatal(err)
	}

	a, st, err := RunStateful(ctx, pc, 0.001, seeded)
	if err != nil {
		t.Fatal(err)
	}
	b, fst, err := RunStateful(ctx, pc, 0.001, fresh)
	if err != nil {
		t.Fatal(err)
	}
	sameIteration(t, "RunStateful", a, b)
	if !reflect.DeepEqual(st.Place, fst.Place) {
		t.Error("RunStateful: FreshPlacement changed the placement")
	}

	edits := mapper.RandomEdits(st.Prep, rand.New(rand.NewSource(3)), 1)
	for _, fast := range []bool{false, true} {
		scfg, fcfg := seeded, fresh
		scfg.FastECORoute, fcfg.FastECORoute = fast, fast
		a, ast, err := RunECO(ctx, pc, st, edits, scfg)
		if err != nil {
			t.Fatal(err)
		}
		b, bst, err := RunECO(ctx, pc, st, edits, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("RunECO fast=%v", fast)
		sameIteration(t, tag, a, b)
		if !reflect.DeepEqual(ast.Place, bst.Place) {
			t.Errorf("%s: FreshPlacement changed the placement", tag)
		}
	}

	ares, err := RunAdaptive(ctx, pc, seeded, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := RunAdaptive(ctx, pc, fresh, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.Iterations) != len(bres.Iterations) {
		t.Fatalf("RunAdaptive: %d vs %d iterations", len(ares.Iterations), len(bres.Iterations))
	}
	for i := range ares.Iterations {
		sameIteration(t, fmt.Sprintf("RunAdaptive iteration %d", i), ares.Iterations[i].Iteration, bres.Iterations[i].Iteration)
	}
}

// TestFastECOSpans: a fast-mode edit records its incremental placement
// under "place.eco", and the reroute's grid build and result
// collection under "route.grid" and "route.collect", once each.
func TestFastECOSpans(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.FreshPlacement = false
	cfg.FastECORoute = true
	ctx := obs.WithRecorder(context.Background(), obs.New())
	_, st, err := RunStateful(ctx, pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		it, next, err := RunECO(ctx, pc, st, mapper.RandomEdits(st.Prep, rng, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev := it.Metrics.Events
		if ev.Counters["eco.route_nets_ripped"] == 0 {
			st = next
			continue // the reroute kept every net; try another edit
		}
		spans := make(map[string]int)
		for _, sp := range ev.Spans {
			spans[sp.Name]++
		}
		for _, name := range []string{"place.eco", "route.grid", "route.collect"} {
			if spans[name] != 1 {
				t.Errorf("edit %d recorded %d %q spans, want 1", i, spans[name], name)
			}
		}
		return
	}
	t.Fatal("no edit ripped a net")
}
