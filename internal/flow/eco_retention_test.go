package flow

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"casyn/internal/mapper"
)

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestECOChainRetentionBounded: a long fast chain that keeps only its
// latest state retains about what one state does. It runs 240
// single-edit fast RunECOs and compares the live heap the chain's
// first successor holds with what its last one holds, each measured as
// the live heap with the state kept minus the live heap with no state
// kept. The bound is 1.5×: every state of the chain describes the same
// design within a few cells and nets, and the router's ID spaces stay
// as large as the most segments and nets the chain ever held, so an
// honest last state is about as large as the first; a successor that
// kept windows into the arrays of the states before it would retain
// memory growing with the chain's length instead. The test is not
// parallel, so no other test allocates while it measures.
func TestECOChainRetentionBounded(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.FreshPlacement = false
	cfg.FastECORoute = true
	ctx := context.Background()
	_, st, err := RunStateful(ctx, pc, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	step := func(i int) {
		t.Helper()
		_, next, err := RunECO(ctx, pc, st, mapper.RandomEdits(st.Prep, rng, 1), cfg)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		st = next
	}
	step(0)
	first := liveHeap()
	const edits = 240
	for i := 1; i < edits; i++ {
		step(i)
	}
	last := liveHeap()
	runtime.KeepAlive(st)
	st = nil
	none := liveHeap()
	firstKept, lastKept := float64(first)-float64(none), float64(last)-float64(none)
	t.Logf("live heap kept by one state: first successor %.0f KB, after %d edits %.0f KB", firstKept/1024, edits, lastKept/1024)
	if firstKept <= 0 {
		t.Fatalf("the first state keeps %.0f bytes live; the measurement is broken", firstKept)
	}
	if lastKept > 1.5*firstKept {
		t.Errorf("after %d edits the last state keeps %.0f KB live, more than 1.5x the first successor's %.0f KB",
			edits, lastKept/1024, firstKept/1024)
	}
}
