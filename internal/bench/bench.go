// Package bench generates the synthetic benchmark circuits the
// experiments run on. The paper uses SPLA (22,834 base gates), PDC
// (23,058) and TOO_LARGE (27,977) from the IWLS93 suite; those files
// are not redistributable here, so this package regenerates
// PLA-structured circuits of the same class: the same input/output
// profile, comparable decomposed base-gate counts, and the heavy
// shared-subterm structure that makes SIS-style extraction productive
// (which is what drives the paper's congestion pathology).
//
// Generation is fully deterministic given the spec's seed.
package bench

import (
	"fmt"
	"math/rand"

	"casyn/internal/bnet"
	"casyn/internal/logic"
	"casyn/internal/subject"
)

// Class identifies a benchmark family.
type Class int

const (
	// SPLA mirrors the IWLS93 "spla" PLA (16 in, 46 out).
	SPLA Class = iota
	// PDC mirrors "pdc" (16 in, 40 out).
	PDC
	// TooLarge mirrors "too_large" (38 in, 3 out).
	TooLarge
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case SPLA:
		return "spla"
	case PDC:
		return "pdc"
	case TooLarge:
		return "too_large"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ParseClass is the inverse of String: the class named name, false
// when no class has that name.
func ParseClass(name string) (Class, bool) {
	for c := SPLA; c <= TooLarge; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// Spec parameterizes a synthetic PLA.
type Spec struct {
	Name    string
	Inputs  int
	Outputs int
	// Terms is the product-term count; the main size knob.
	Terms int
	// MotifCount is the size of the shared sub-cube pool; smaller
	// pools create more sharing.
	MotifCount int
	// MotifWidth / ExtraWidth control cube shapes: each term is a
	// random motif plus ExtraWidth-ish random literals.
	MotifWidth int
	ExtraWidth int
	// Locality in (0,1] is the fraction of the motif pool visible to
	// each output neighborhood; real PLA benchmarks have strong
	// product-term locality (related outputs share related products),
	// which is what lets a placer find a routable arrangement. 0 means
	// the default (0.18). GlobalFrac (default 0.08) is the fraction of
	// terms that ignore locality, modeling the long-range sharing that
	// stresses congestion.
	Locality   float64
	GlobalFrac float64
	Seed       int64
}

func (s *Spec) defaults() {
	if s.Locality == 0 {
		s.Locality = 0.18
	}
	if s.GlobalFrac == 0 {
		s.GlobalFrac = 0.08
	}
}

// Spec returns the full-size generation parameters for the class.
func (c Class) Spec() Spec {
	// The spla/pdc specs are calibrated for the sharing profile
	// (≈11-12 terms per motif) at which the congestion-window
	// behaviour of the paper's Tables 2/4 reproduces cleanly; that
	// puts their decomposed sizes at 17.4k/17.9k base gates, 0.76× the
	// counts the paper reports for the real IWLS93 circuits (22,834 /
	// 23,058). Pushing the synthetic circuits to the exact counts
	// densifies the sharing and buries the window in tie-break noise,
	// so the behavioural match is preferred over the size match (see
	// DESIGN.md). too_large lands at 27,539 vs the paper's 27,977
	// (-1.6%); with only 3 outputs its cones are inherently global, so
	// it uses full locality.
	switch c {
	case SPLA:
		return Spec{Name: "spla", Inputs: 16, Outputs: 46, Terms: 3400,
			MotifCount: 280, MotifWidth: 4, ExtraWidth: 7,
			Locality: 0.12, GlobalFrac: 0.04, Seed: 0x5917a}
	case PDC:
		return Spec{Name: "pdc", Inputs: 16, Outputs: 40, Terms: 3500,
			MotifCount: 300, MotifWidth: 4, ExtraWidth: 7,
			Locality: 0.12, GlobalFrac: 0.04, Seed: 0x9dc}
	case TooLarge:
		return Spec{Name: "too_large", Inputs: 38, Outputs: 3, Terms: 4798,
			MotifCount: 333, MotifWidth: 5, ExtraWidth: 10,
			Locality: 1.0, GlobalFrac: 0.04, Seed: 0x70014}
	default:
		return Spec{}
	}
}

// ScaledSpec shrinks the class spec to roughly scale× the full term
// count (for unit tests and Go benchmarks).
func (c Class) ScaledSpec(scale float64) Spec {
	s := c.Spec()
	s.Name = fmt.Sprintf("%s-x%.3g", s.Name, scale)
	s.Terms = int(float64(s.Terms)*scale + 0.5)
	if s.Terms < 8 {
		s.Terms = 8
	}
	mc := int(float64(s.MotifCount)*scale + 0.5)
	if mc < 4 {
		mc = 4
	}
	s.MotifCount = mc
	return s
}

// SpecAt returns the class spec at a scale: the full-size Spec at 1,
// else ScaledSpec(scale).
func (c Class) SpecAt(scale float64) Spec {
	if scale == 1 {
		return c.Spec()
	}
	return c.ScaledSpec(scale)
}

// Generate builds the PLA for a spec.
func Generate(spec Spec) (*logic.PLA, error) {
	if spec.Inputs <= 0 || spec.Outputs <= 0 || spec.Terms <= 0 {
		return nil, fmt.Errorf("bench: non-positive spec dimension")
	}
	if spec.MotifWidth+spec.ExtraWidth > spec.Inputs {
		return nil, fmt.Errorf("bench: cube width %d exceeds %d inputs",
			spec.MotifWidth+spec.ExtraWidth, spec.Inputs)
	}
	spec.defaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	// Motif pool: shared sub-cubes.
	motifs := make([]logic.Cube, spec.MotifCount)
	for m := range motifs {
		motifs[m] = randomSubCube(rng, spec.Inputs, spec.MotifWidth)
	}
	window := int(float64(spec.MotifCount)*spec.Locality + 0.5)
	if window < 1 {
		window = 1
	}
	p := logic.NewPLA(spec.Inputs, spec.Outputs)
	for t := 0; t < spec.Terms; t++ {
		// Output membership first: cluster terms onto neighboring
		// outputs so output cones overlap (the PLA-benchmark
		// signature).
		row := make([]bool, spec.Outputs)
		base := rng.Intn(spec.Outputs)
		row[base] = true
		if rng.Intn(3) != 0 {
			row[(base+1+rng.Intn(3))%spec.Outputs] = true
		}
		// Motif choice follows output locality: output neighborhoods
		// see a sliding window of the pool, with a small global
		// fraction sharing across the whole design.
		var mi int
		if rng.Float64() < spec.GlobalFrac {
			mi = rng.Intn(spec.MotifCount)
		} else {
			anchor := base * spec.MotifCount / spec.Outputs
			mi = (anchor + rng.Intn(window)) % spec.MotifCount
		}
		cb := motifs[mi].Clone()
		// Extend with extra literals on inputs the motif leaves free.
		extra := rng.Intn(spec.ExtraWidth + 1)
		for e := 0; e < extra; e++ {
			i := rng.Intn(spec.Inputs)
			if cb.Lit(i) != 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				cb.SetPos(i)
			} else {
				cb.SetNeg(i)
			}
		}
		if err := p.AddTerm(cb, row); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func randomSubCube(rng *rand.Rand, n, width int) logic.Cube {
	cb := logic.NewCube(n)
	for placed := 0; placed < width; {
		i := rng.Intn(n)
		if cb.Lit(i) != 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			cb.SetPos(i)
		} else {
			cb.SetNeg(i)
		}
		placed++
	}
	return cb
}

// SynthesisStyle selects the technology-independent path.
type SynthesisStyle int

const (
	// Direct decomposes the PLA as-is (the "technology independent
	// representation generated with SIS" that DAGON maps in the
	// paper's experiments — structure preserved, no restructuring).
	Direct SynthesisStyle = iota
	// SISOptimized runs FastExtract's term-sharing and common-cube
	// extraction, then Sweep, before decomposition — the substitute for
	// the paper's "synthesized with SIS and mapped for minimum area"
	// baseline with its aggressive literal sharing. No two-level
	// minimization runs.
	SISOptimized
)

// String implements fmt.Stringer.
func (s SynthesisStyle) String() string {
	if s == SISOptimized {
		return "sis"
	}
	return "direct"
}

// BuildSubject turns a PLA into a subject DAG under the chosen
// synthesis style.
func BuildSubject(p *logic.PLA, style SynthesisStyle) (*subject.DAG, error) {
	n, err := bnet.FromPLA(p)
	if err != nil {
		return nil, err
	}
	if style == SISOptimized {
		bnet.FastExtract(n, bnet.FastExtractOptions{})
		n.Sweep()
	}
	return subject.Decompose(n)
}
