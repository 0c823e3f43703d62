package mapper

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"casyn/internal/bench"
	"casyn/internal/library"
	"casyn/internal/place"
)

// TestSubjectPlacementFingerprint pins the exact companion placement of
// a quarter-scale SPLA subject DAG: the SHA-256 of every gate
// position's float bits. Its PI nets are hubs reaching most
// product-term gates, the case placement refinement is costliest on.
// Refinement speed-ups must not move a single bit; a change that
// intentionally alters placement updates the hash.
func TestSubjectPlacementFingerprint(t *testing.T) {
	t.Parallel()
	p, err := bench.Generate(bench.SPLA.ScaledSpec(0.25))
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.BuildSubject(p, bench.SISOptimized)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1, library.RowHeight)
	if err != nil {
		t.Fatal(err)
	}
	pos, _, _, _, err := SubjectPlacement(context.Background(), d, layout, place.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, pt := range pos {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pt.X))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pt.Y))
		h.Write(buf[:])
	}
	const want = "79fac8fa45bcc12530be8bfc8fd1f6474bc6f4fe6faf6ccdf5b18f2bf135d904"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("subject placement hash over %d gates = %s, want %s", len(pos), got, want)
	}
}
