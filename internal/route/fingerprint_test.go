package route

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"casyn/internal/bench"
)

// Fingerprint hashes every deterministic bit of a routing result: the
// scalar outcome fields, the exact bits of the wirelength and of each
// net's routed length, and the full final congestion map (which pins
// the grid's edge usage, i.e. the actual paths, not just their summary
// statistics). Exported for the external determinism test.
func Fingerprint(res *Result) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(res.Overflow))
	word(uint64(res.OverflowEdges))
	word(uint64(res.FailedConnections))
	word(uint64(res.RipupRounds))
	f64(res.WireLength)
	for _, l := range res.NetLength {
		f64(l)
	}
	for _, row := range res.Grid.CongestionMap() {
		for _, v := range row {
			f64(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// routeNetlistFingerprints are Fingerprint of the 30k-cell generated
// netlist routed with a rip-up budget of 5 on the calibrated grid (the
// experiments package's RouteOpts: every overflow negotiated away in 2
// rounds) and at capacity scale 1 (overflow left after all 5 rounds,
// 955 failed connections). They pin the router's output bit for bit: a
// change that is meant to keep every routing must leave them alone.
var routeNetlistFingerprints = []struct {
	capScale float64
	want     string
}{
	{1.98, "14c8b6184903b879a67051084eb736baf678e0d2060b48efb64ceac9662221cf"},
	{1, "8fda6d90692ad4c366ecbc4619a2b6e0933143f9811603865daa9fe40b97320f"},
}

// TestRouteNetlistFingerprint routes the 30k-cell generated netlist at
// workers {1, 2, 8} for each pinned capacity. Every Result must hash to
// the pinned fingerprint, and every State must equal the serial one
// segment for segment and path for path.
func TestRouteNetlistFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("six congested 30k-cell routes take seconds")
	}
	t.Parallel()
	nl, pl, layout, err := bench.RouteSpecAt(30_000).Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range routeNetlistFingerprints {
		run := func(workers int) (*Result, *State) {
			t.Helper()
			// experiments.RouteOpts, which this package cannot import,
			// at the pinned capacity.
			opts := Options{GCellSize: 26.6, CapacityScale: pin.capScale, RipupIterations: 5, Workers: workers}
			res, st, err := RouteNetlistState(context.Background(), nl, pl, layout, opts)
			if err != nil {
				t.Fatalf("cap=%g workers=%d: %v", pin.capScale, workers, err)
			}
			return res, st
		}
		ref, refSt := run(1)
		if ref.RipupRounds == 0 {
			t.Fatalf("cap=%g: no congestion; rip-up was not exercised", pin.capScale)
		}
		if got := Fingerprint(ref); got != pin.want {
			t.Errorf("cap=%g workers=1 fingerprint %s, pinned %s (overflow %d, failed %d, rounds %d, wirelength %v)",
				pin.capScale, got, pin.want, ref.Overflow, ref.FailedConnections, ref.RipupRounds, ref.WireLength)
		}
		for _, w := range []int{2, 8} {
			res, st := run(w)
			if got := Fingerprint(res); got != pin.want {
				t.Errorf("cap=%g workers=%d fingerprint %s, pinned %s", pin.capScale, w, got, pin.want)
			}
			if err := diffRouting(res, st, ref, refSt); err != nil {
				t.Errorf("cap=%g workers=%d State differs from workers=1: %v", pin.capScale, w, err)
			}
		}
	}
}
