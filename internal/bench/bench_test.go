package bench

import (
	"math/rand"
	"testing"

	"casyn/internal/bnet"
)

func TestGenerateDeterminism(t *testing.T) {
	t.Parallel()
	spec := SPLA.ScaledSpec(0.05)
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Terms) != len(b.Terms) {
		t.Fatalf("term counts differ: %d vs %d", len(a.Terms), len(b.Terms))
	}
	for i := range a.Terms {
		if !a.Terms[i].Equal(b.Terms[i]) {
			t.Fatalf("term %d differs", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	t.Parallel()
	if _, err := Generate(Spec{}); err == nil {
		t.Error("zero spec accepted")
	}
	if _, err := Generate(Spec{Inputs: 4, Outputs: 1, Terms: 5, MotifWidth: 3, ExtraWidth: 3, MotifCount: 2}); err == nil {
		t.Error("cube wider than inputs accepted")
	}
}

func TestClassSpecs(t *testing.T) {
	t.Parallel()
	for _, c := range []Class{SPLA, PDC, TooLarge} {
		spec := c.Spec()
		if spec.Inputs == 0 || spec.Outputs == 0 || spec.Terms == 0 {
			t.Errorf("%v spec degenerate: %+v", c, spec)
		}
		if c.TargetBaseGates() == 0 {
			t.Errorf("%v target missing", c)
		}
		scaled := c.ScaledSpec(0.1)
		if scaled.Terms >= spec.Terms {
			t.Errorf("%v scaling did not shrink terms", c)
		}
	}
	if SPLA.String() != "spla" || PDC.String() != "pdc" || TooLarge.String() != "too_large" {
		t.Error("Class.String broken")
	}
}

func TestFullSizeBaseGateCalibration(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full-size calibration skipped in short mode")
	}
	// The calibrated sizes documented in Spec(); spla/pdc deliberately
	// sit at 0.76× the paper (see the comment there), too_large at
	// -1.1% via the layered generator.
	wants := map[Class]int{SPLA: 17360, PDC: 17920}
	for class, want := range wants {
		p, err := Generate(class.Spec())
		if err != nil {
			t.Fatal(err)
		}
		d, err := BuildSubject(p, Direct)
		if err != nil {
			t.Fatal(err)
		}
		got := d.BaseGateCount()
		if got < want-want/20 || got > want+want/20 {
			t.Errorf("%v base gates = %d, want %d ±5%%", class, got, want)
		}
	}
	d, err := BuildLayeredSubject(TooLargeLayered(), Direct)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.BaseGateCount(); got < 26000 || got > 29000 {
		t.Errorf("too_large base gates = %d, want ≈27682", got)
	}
}

func TestBuildSubjectEquivalence(t *testing.T) {
	t.Parallel()
	spec := SPLA.ScaledSpec(0.02)
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, style := range []SynthesisStyle{Direct, SISOptimized} {
		d, err := BuildSubject(p, style)
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]bool, p.NumInputs)
		for v := 0; v < 200; v++ {
			for i := range assign {
				assign[i] = rng.Intn(2) == 0
			}
			want := p.Eval(assign)
			got, err := d.EvalOutputs(assign)
			if err != nil {
				t.Fatal(err)
			}
			for o := range want {
				if want[o] != got[o] {
					t.Fatalf("%v: output %d differs at vector %d", style, o, v)
				}
			}
		}
	}
}

func TestSISShrinksButShares(t *testing.T) {
	t.Parallel()
	spec := SPLA.ScaledSpec(0.05)
	p, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := BuildSubject(p, Direct)
	if err != nil {
		t.Fatal(err)
	}
	sis, err := BuildSubject(p, SISOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if sis.BaseGateCount() >= direct.BaseGateCount() {
		t.Errorf("SIS base gates %d not below direct %d", sis.BaseGateCount(), direct.BaseGateCount())
	}
	if Direct.String() != "direct" || SISOptimized.String() != "sis" {
		t.Error("SynthesisStyle.String broken")
	}
}

func TestLayeredGeneratorDeterminismAndEquivalence(t *testing.T) {
	t.Parallel()
	spec := TooLargeLayered().Scaled(0.05)
	shared := spec
	shared.SharedControls = true
	dup := spec
	dup.SharedControls = false
	nShared, err := GenerateLayered(shared)
	if err != nil {
		t.Fatal(err)
	}
	nDup, err := GenerateLayered(dup)
	if err != nil {
		t.Fatal(err)
	}
	// The two variants implement the same function: shared vs
	// duplicated control logic is purely structural.
	rng := rand.New(rand.NewSource(7))
	if err := bnet.CheckEquivalence(nShared, nDup, 100, rng); err != nil {
		t.Fatalf("variants not equivalent: %v", err)
	}
	// The duplicated variant carries more logic.
	if nDup.NumLiterals() <= nShared.NumLiterals() {
		t.Errorf("duplicated variant not larger: %d vs %d literals",
			nDup.NumLiterals(), nShared.NumLiterals())
	}
	// Determinism.
	again, err := GenerateLayered(shared)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumLiterals() != nShared.NumLiterals() || again.NumNodes() != nShared.NumNodes() {
		t.Error("layered generation not deterministic")
	}
}

func TestLayeredSubjectStyles(t *testing.T) {
	t.Parallel()
	spec := TooLargeLayered().Scaled(0.05)
	direct, err := BuildLayeredSubject(spec, Direct)
	if err != nil {
		t.Fatal(err)
	}
	sis, err := BuildLayeredSubject(spec, SISOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if sis.BaseGateCount() >= direct.BaseGateCount() {
		t.Errorf("layered SIS %d not below direct %d", sis.BaseGateCount(), direct.BaseGateCount())
	}
	// Same function through both paths.
	rng := rand.New(rand.NewSource(11))
	assign := make([]bool, len(direct.PIs()))
	for v := 0; v < 100; v++ {
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		a, err := direct.EvalOutputs(assign)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sis.EvalOutputs(assign)
		if err != nil {
			t.Fatal(err)
		}
		for o := range a {
			if a[o] != b[o] {
				t.Fatalf("styles differ at vector %d output %d", v, o)
			}
		}
	}
}

func TestLayeredValidation(t *testing.T) {
	t.Parallel()
	if _, err := GenerateLayered(LayeredSpec{}); err == nil {
		t.Error("zero layered spec accepted")
	}
	s := TooLargeLayered().Scaled(0.01)
	if s.Layers < 3 || s.Width < 4 {
		t.Error("scaling floor violated")
	}
}
