package flow

import (
	"context"
	"math/rand"
	"testing"

	"casyn/internal/mapper"
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
