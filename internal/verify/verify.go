package verify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// Method names the engine that produced a verdict.
type Method string

const (
	// MethodSimulation: only the bit-parallel simulation pass ran; a
	// mismatch is definitive, a clean pass is not a proof.
	MethodSimulation Method = "simulation"
	// MethodBDD: the ROBDD backend compared canonical forms — a proof
	// either way.
	MethodBDD Method = "bdd"
	// MethodExhaustive: every input vector was enumerated — a proof
	// either way.
	MethodExhaustive Method = "exhaustive"
)

// Options configures Equivalent.
type Options struct {
	// Seed drives the simulation's random patterns (default 1).
	Seed int64
	// RandomBatches is the number of 64-vector random simulation
	// batches (default 64, i.e. 4096 random vectors).
	RandomBatches int
	// BDDNodeBudget caps the ROBDD node table (default 1<<20). On
	// overflow the checker falls back to exhaustive enumeration when
	// the input count permits.
	BDDNodeBudget int
	// MaxExhaustiveInputs bounds the exhaustive fallback (default 20:
	// 2^20 vectors, 16384 word evaluations per circuit).
	MaxExhaustiveInputs int
	// SimOnly skips the exact backend entirely; the report is then
	// never proven. For quick smoke checks on huge designs.
	SimOnly bool
}

// sensitizeBases is the number of random base vectors the directed
// simulation expands into single-input-flip neighborhoods.
const sensitizeBases = 8

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RandomBatches == 0 {
		o.RandomBatches = 64
	}
	if o.BDDNodeBudget == 0 {
		o.BDDNodeBudget = 1 << 20
	}
	if o.MaxExhaustiveInputs == 0 {
		o.MaxExhaustiveInputs = 20
	}
}

// Counterexample is a concrete input assignment on which the two
// circuits disagree.
type Counterexample struct {
	// Inputs is the assignment in InputNames order (circuit a's input
	// order).
	Inputs     []bool
	InputNames []string
	// Output is the name of a disagreeing output; AValue/BValue are
	// the two circuits' values there.
	Output string
	AValue bool
	BValue bool
}

// String renders the vector as name=0/1 pairs plus the disagreeing
// output.
func (c *Counterexample) String() string {
	var b strings.Builder
	for i, name := range c.InputNames {
		if i > 0 {
			b.WriteByte(' ')
		}
		v := '0'
		if c.Inputs[i] {
			v = '1'
		}
		fmt.Fprintf(&b, "%s=%c", name, v)
	}
	fmt.Fprintf(&b, " -> %s: %v vs %v", c.Output, c.AValue, c.BValue)
	return b.String()
}

// Report is the outcome of one equivalence check.
type Report struct {
	// A and B name the compared circuits.
	A, B string
	// Equivalent is the verdict: no difference found. It is definitive
	// only when Proven is also true.
	Equivalent bool
	// Proven is true when an exact engine (BDD or exhaustive) ran to
	// completion, or when a counterexample was found (inequivalence is
	// always definitive).
	Proven bool
	// Method is the engine that produced the verdict.
	Method Method
	// VectorsSimulated counts simulated input vectors across all
	// passes.
	VectorsSimulated int
	// BDDNodes is the final ROBDD table size (0 when the BDD engine
	// did not complete).
	BDDNodes int
	// Inputs and Outputs are the unified interface sizes.
	Inputs, Outputs int
	// Counterexample is non-nil iff Equivalent is false.
	Counterexample *Counterexample
}

// String is a one-line summary for logs and CLIs.
func (r *Report) String() string {
	verdict := "NOT equivalent"
	if r.Equivalent {
		verdict = "equivalent"
		if !r.Proven {
			verdict = "no mismatch found (unproven)"
		}
	}
	s := fmt.Sprintf("%s vs %s: %s [%s, %d vectors", r.A, r.B, verdict, r.Method, r.VectorsSimulated)
	if r.BDDNodes > 0 {
		s += fmt.Sprintf(", %d BDD nodes", r.BDDNodes)
	}
	s += "]"
	if r.Counterexample != nil {
		s += "\n  counterexample: " + r.Counterexample.String()
	}
	return s
}

// Equivalent checks whether two circuit representations compute the
// same functions. a and b may each be a *bnet.Network, *subject.DAG,
// *netlist.Netlist, *logic.PLA, or an already-compiled *Circuit;
// inputs and outputs are aligned by name. The returned Report carries
// the verdict, the engine used, and a minimal counterexample vector
// when the circuits differ. A non-nil error means the check itself
// could not run (interface mismatch, unsupported type, cancellation) —
// inequivalence is not an error.
func Equivalent(ctx context.Context, a, b any, opts Options) (*Report, error) {
	opts.defaults()
	ca, err := Compile(a)
	if err != nil {
		return nil, err
	}
	cb, err := Compile(b)
	if err != nil {
		return nil, err
	}
	if err := ca.checkInterface(); err != nil {
		return nil, err
	}
	if err := cb.checkInterface(); err != nil {
		return nil, err
	}
	bPerm, bOut, err := alignInterfaces(ca, cb)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		A: ca.Name, B: cb.Name,
		Inputs: ca.NumInputs(), Outputs: ca.NumOutputs(),
	}
	s := newSimPair(ca, cb, bPerm, bOut)
	rng := rand.New(rand.NewSource(opts.Seed))

	finishCex := func(m Method, cex *Counterexample) *Report {
		rep.Method = m
		rep.Equivalent = false
		rep.Proven = true
		rep.Counterexample = cex
		rep.VectorsSimulated = s.vectors
		return rep
	}

	// Phase 1: directed + random simulation (fast refutation). Small
	// input counts go straight to the exhaustive engine — it both
	// refutes and proves in one pass.
	n := ca.NumInputs()
	exhaustiveCheap := n <= 11 && !opts.SimOnly // ≤ 32 word evaluations
	if !exhaustiveCheap {
		cex, err := s.runDirected(ctx, rng, sensitizeBases)
		if err != nil {
			return nil, err
		}
		if cex == nil {
			cex, err = s.runRandom(ctx, rng, opts.RandomBatches)
			if err != nil {
				return nil, err
			}
		}
		if cex != nil {
			return finishCex(MethodSimulation, cex), nil
		}
	}
	if opts.SimOnly {
		rep.Method = MethodSimulation
		rep.Equivalent = true
		rep.Proven = false
		rep.VectorsSimulated = s.vectors
		return rep, nil
	}

	// Phase 2: exact backend. BDD first; exhaustive enumeration when
	// the BDD blows its budget (or when it is trivially cheap).
	if !exhaustiveCheap {
		rep2, err := equivalentBDD(ctx, ca, cb, bPerm, bOut, opts, rep, s)
		if err == nil {
			return rep2, nil
		}
		if !errors.Is(err, errBDDBudget) {
			return nil, err
		}
		// Budget exceeded: fall through to exhaustive if feasible.
	}
	if n <= opts.MaxExhaustiveInputs {
		cex, err := s.runExhaustive(ctx)
		if err != nil {
			return nil, err
		}
		rep.Method = MethodExhaustive
		rep.VectorsSimulated = s.vectors
		if cex != nil {
			rep.Equivalent = false
			rep.Proven = true
			rep.Counterexample = cex
			return rep, nil
		}
		rep.Equivalent = true
		rep.Proven = true
		return rep, nil
	}
	// No exact engine could finish: report the simulation verdict.
	rep.Method = MethodSimulation
	rep.Equivalent = true
	rep.Proven = false
	rep.VectorsSimulated = s.vectors
	return rep, nil
}

// equivalentBDD runs the ROBDD comparison. It returns errBDDBudget
// when the node budget is exceeded.
func equivalentBDD(ctx context.Context, ca, cb *Circuit, bPerm, bOut []int, opts Options, rep *Report, s *simPair) (*Report, error) {
	m := newBDDManager(ctx, ca.NumInputs(), opts.BDDNodeBudget)
	aPerm := make([]int, ca.NumInputs())
	for i := range aPerm {
		aPerm[i] = i
	}
	aRoots, err := m.buildCircuit(ca, aPerm)
	if err != nil {
		return nil, err
	}
	bRoots, err := m.buildCircuit(cb, bPerm)
	if err != nil {
		return nil, err
	}
	rep.Method = MethodBDD
	rep.BDDNodes = len(m.nodes)
	rep.VectorsSimulated = s.vectors
	for o := range aRoots {
		ra, rb := aRoots[o], bRoots[bOut[o]]
		if ra == rb {
			continue
		}
		// Canonicity: different roots mean different functions. The
		// XOR of the two is satisfiable; any satisfying path is a
		// counterexample.
		diff, err := m.apply(bddXor, ra, rb)
		if err != nil {
			return nil, err
		}
		vec := m.satVector(diff, ca.NumInputs())
		av, err := ca.EvalVector(vec)
		if err != nil {
			return nil, err
		}
		rep.Equivalent = false
		rep.Proven = true
		rep.Counterexample = &Counterexample{
			Inputs:     vec,
			InputNames: ca.InputNames(),
			Output:     ca.outputs[o].Name,
			AValue:     av[o],
			BValue:     !av[o],
		}
		return rep, nil
	}
	rep.Equivalent = true
	rep.Proven = true
	return rep, nil
}

// alignInterfaces matches b's inputs and outputs to a's by name.
// bPerm[j] is the a-ordinal feeding b's input j; bOut[o] is b's output
// index for a's output o.
func alignInterfaces(a, b *Circuit) (bPerm, bOut []int, err error) {
	if a.NumInputs() != b.NumInputs() {
		return nil, nil, fmt.Errorf("verify: input count mismatch: %s has %d, %s has %d",
			a.Name, a.NumInputs(), b.Name, b.NumInputs())
	}
	if a.NumOutputs() != b.NumOutputs() {
		return nil, nil, fmt.Errorf("verify: output count mismatch: %s has %d, %s has %d",
			a.Name, a.NumOutputs(), b.Name, b.NumOutputs())
	}
	aIn := make(map[string]int, a.NumInputs())
	for i, name := range a.inputs {
		aIn[name] = i
	}
	bPerm = make([]int, b.NumInputs())
	for j, name := range b.inputs {
		i, ok := aIn[name]
		if !ok {
			return nil, nil, fmt.Errorf("verify: input %q of %s not present in %s", name, b.Name, a.Name)
		}
		bPerm[j] = i
	}
	bOutIdx := make(map[string]int, b.NumOutputs())
	for j, o := range b.outputs {
		bOutIdx[o.Name] = j
	}
	bOut = make([]int, a.NumOutputs())
	for o, ao := range a.outputs {
		j, ok := bOutIdx[ao.Name]
		if !ok {
			return nil, nil, fmt.Errorf("verify: output %q of %s not present in %s", ao.Name, a.Name, b.Name)
		}
		bOut[o] = j
	}
	return bPerm, bOut, nil
}
