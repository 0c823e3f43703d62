package sta

import (
	"math"
	"strings"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/netlist"
)

// chain builds PI -> INV -> INV -> ... -> PO with n inverters.
func chain(n int) *netlist.Netlist {
	lib := library.Default()
	nl := netlist.New()
	s := nl.AddSignal("a", netlist.SigPI)
	for i := 0; i < n; i++ {
		_, s = nl.AddInstance("u", lib.Cell("INV"), 0, []netlist.SigID{s}, geom.Point{})
		// Names must be unique only for humans; reuse is fine here.
	}
	nl.AddPO("out", s)
	return nl
}

func TestChainDelayScalesWithDepth(t *testing.T) {
	t.Parallel()
	r2, err := Analyze(chain(2), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Analyze(chain(8), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r8.MaxArrival <= r2.MaxArrival {
		t.Errorf("deeper chain not slower: %g vs %g", r2.MaxArrival, r8.MaxArrival)
	}
	// Rough linearity: each stage adds the same delay.
	perStage2 := r2.MaxArrival / 2
	perStage8 := r8.MaxArrival / 8
	if math.Abs(perStage2-perStage8) > perStage2 {
		t.Errorf("per-stage delay wildly nonlinear: %g vs %g", perStage2, perStage8)
	}
}

func TestWireLengthIncreasesDelay(t *testing.T) {
	t.Parallel()
	nl := chain(3)
	short, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Give every signal 500 µm of wire.
	lens := make([]float64, len(nl.Signals))
	for i := range lens {
		lens[i] = 500
	}
	long, err := Analyze(nl, lens, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if long.MaxArrival <= short.MaxArrival {
		t.Errorf("wire load did not slow the path: %g vs %g", short.MaxArrival, long.MaxArrival)
	}
	if long.TotalNetSwitchingCap <= short.TotalNetSwitchingCap {
		t.Error("switching cap did not grow with wirelength")
	}
}

func TestCriticalPathEndpoints(t *testing.T) {
	t.Parallel()
	// Two paths: a deep one from a, a shallow one from b.
	lib := library.Default()
	nl := netlist.New()
	a := nl.AddSignal("a", netlist.SigPI)
	b := nl.AddSignal("b", netlist.SigPI)
	s := a
	for i := 0; i < 6; i++ {
		_, s = nl.AddInstance("u", lib.Cell("INV"), 0, []netlist.SigID{s}, geom.Point{})
	}
	_, slow := nl.AddInstance("m", lib.Cell("NAND2"), 0, []netlist.SigID{s, b}, geom.Point{})
	nl.AddPO("out", slow)
	_, fast := nl.AddInstance("f", lib.Cell("INV"), 0, []netlist.SigID{b}, geom.Point{})
	nl.AddPO("aux", fast)
	res, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalPO != "out" {
		t.Errorf("critical PO = %s, want out", res.CriticalPO)
	}
	if res.CriticalPI != "a" {
		t.Errorf("critical PI = %s, want a", res.CriticalPI)
	}
	if len(res.Path) < 7 {
		t.Errorf("path too short: %d points", len(res.Path))
	}
	if res.Path[0].Name != "a" {
		t.Errorf("path starts at %s", res.Path[0].Name)
	}
	// Arrivals along the path are monotonic.
	for i := 1; i < len(res.Path); i++ {
		if res.Path[i].Arrival < res.Path[i-1].Arrival {
			t.Errorf("non-monotonic arrival at point %d", i)
		}
	}
	if res.ArrivalByPO["aux"] >= res.ArrivalByPO["out"] {
		t.Error("shallow path must be faster")
	}
	if !strings.Contains(res.String(), "a (in)") || !strings.Contains(res.String(), "out (out)") {
		t.Errorf("String = %q", res.String())
	}
}

func TestFanoutLoadSlowsDriver(t *testing.T) {
	t.Parallel()
	// One inverter driving 1 vs 8 sinks.
	build := func(fan int) *netlist.Netlist {
		lib := library.Default()
		nl := netlist.New()
		a := nl.AddSignal("a", netlist.SigPI)
		_, drv := nl.AddInstance("d", lib.Cell("INV"), 0, []netlist.SigID{a}, geom.Point{})
		for i := 0; i < fan; i++ {
			_, s := nl.AddInstance("s", lib.Cell("INV"), 0, []netlist.SigID{drv}, geom.Point{})
			nl.AddPO("o"+string(rune('0'+i)), s)
		}
		return nl
	}
	lo, err := Analyze(build(1), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Analyze(build(8), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hi.MaxArrival <= lo.MaxArrival {
		t.Errorf("fanout load did not slow path: %g vs %g", lo.MaxArrival, hi.MaxArrival)
	}
}

func TestConstSignalTiming(t *testing.T) {
	t.Parallel()
	lib := library.Default()
	nl := netlist.New()
	c1 := nl.AddSignal("one", netlist.SigConst1)
	a := nl.AddSignal("a", netlist.SigPI)
	_, out := nl.AddInstance("u", lib.Cell("NAND2"), 0, []netlist.SigID{c1, a}, geom.Point{})
	nl.AddPO("o", out)
	res, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalPI != "a" {
		t.Errorf("critical PI = %q, want a (constants have zero arrival)", res.CriticalPI)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	t.Parallel()
	nl := netlist.New()
	nl.AddSignal("a", netlist.SigPI)
	if _, err := Analyze(nl, nil, Options{}); err == nil {
		t.Error("netlist without POs accepted")
	}
}

func TestNetLengths(t *testing.T) {
	t.Parallel()
	sigNet := []int{-1, 0, 1, 0}
	netLength := []float64{10, 20}
	got := NetLengths(sigNet, netLength)
	want := []float64{0, 10, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NetLengths[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestSlackReport(t *testing.T) {
	t.Parallel()
	lib := library.Default()
	nl := netlist.New()
	a := nl.AddSignal("a", netlist.SigPI)
	s := a
	for i := 0; i < 4; i++ {
		_, s = nl.AddInstance("u", lib.Cell("INV"), 0, []netlist.SigID{s}, geom.Point{})
	}
	nl.AddPO("slow", s)
	_, fast := nl.AddInstance("f", lib.Cell("INV"), 0, []netlist.SigID{a}, geom.Point{})
	nl.AddPO("fast", fast)
	res, err := Analyze(nl, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Required halfway between the two arrivals: one endpoint fails.
	req := (res.ArrivalByPO["slow"] + res.ArrivalByPO["fast"]) / 2
	rep := res.Slacks(req)
	if rep.FailingEndpoints == 0 {
		t.Error("report claims met with a failing endpoint")
	}
	if rep.FailingEndpoints != 1 {
		t.Errorf("failing = %d, want 1", rep.FailingEndpoints)
	}
	if rep.Endpoints[0].PO != "slow" || rep.Endpoints[0].Slack >= 0 {
		t.Errorf("worst endpoint = %+v", rep.Endpoints[0])
	}
	if rep.WorstSlack != rep.Endpoints[0].Slack {
		t.Error("WorstSlack inconsistent")
	}
	if rep.TotalNegativeSlack >= 0 {
		t.Error("TNS must be negative")
	}
	// Generous required time: everything met.
	if res.Slacks(1e9).FailingEndpoints != 0 {
		t.Error("huge required time must be met")
	}
	var buf strings.Builder
	if err := rep.Write(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "VIOLATED") || !strings.Contains(out, "slow") {
		t.Errorf("report output malformed:\n%s", out)
	}
	buf.Reset()
	if err := res.WritePath(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "critical path") {
		t.Error("WritePath output malformed")
	}
}
