//go:build go1.24

package flow

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"casyn/internal/mapper"
	"casyn/internal/route"
	"casyn/internal/subject"
)

// TestECOChainReleasesAncestors: a chain that keeps only its latest
// state retains no ancestor. After ten chained RunECOs, the first
// successor's DAG and routing state are unreachable, so weak pointers
// to them read nil once the collector has run. The routing state
// guards the edit-local reroute: a successor copies what it keeps of
// its parent's segments and terminals rather than holding the
// parent's arrays. The same holds for a fast chain started from an
// adaptive parent's state, whose routing state the loop now keeps.
func TestECOChainReleasesAncestors(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.FreshPlacement = false
	cfg.FastECORoute = true
	ctx := context.Background()
	_, st, err := RunStateful(ctx, pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last, first, firstRoute := chainTen(t, pc, st, cfg)
	runtime.GC()
	if first.Value() != nil {
		t.Error("the first successor's DAG is still reachable from the last state of the chain")
	}
	if firstRoute.Value() != nil {
		t.Error("the first successor's routing state is still reachable from the last state of the chain")
	}
	runtime.KeepAlive(last)

	apc, acfg := adaptiveCases[0].prepare(t)
	acfg.FastECORoute = true
	ares, err := RunAdaptive(ctx, apc, acfg, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	last, _, firstRoute = chainTen(t, apc, ares.State, acfg)
	runtime.GC()
	if firstRoute.Value() != nil {
		t.Error("the first successor's routing state is still reachable from the last state of an adaptive-parent chain")
	}
	runtime.KeepAlive(last)
}

// chainTen applies ten single-edit RunECOs from st, keeping only the
// latest state, and returns that state and weak pointers to the first
// successor's DAG and routing state.
func chainTen(t *testing.T, pc *Context, st *ECOState, cfg Config) (*ECOState, weak.Pointer[subject.DAG], weak.Pointer[route.State]) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var first weak.Pointer[subject.DAG]
	var firstRoute weak.Pointer[route.State]
	for i := 0; i < 10; i++ {
		_, next, err := RunECO(context.Background(), pc, st, mapper.RandomEdits(st.Prep, rng, 1), cfg)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if i == 0 {
			first = weak.Make(next.Prep.DAG())
			firstRoute = weak.Make(next.Route)
		}
		st = next
	}
	return st, first, firstRoute
}
