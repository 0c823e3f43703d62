package diffharness

// This file is the differential ECO harness: the incremental path
// (flow.RunStateful then a chain of flow.RunECO calls) is run against a
// seeded stream of random edit sets and required to be SHA-256-
// identical — Verilog bytes and metrics row — to a from-scratch
// synthesis of each edited design in the same placement context,
// across the K ladder and across worker counts. It is the executable
// form of RunECO's byte-identity contract.

import (
	"context"
	"fmt"
	"math/rand"

	"casyn"
	"casyn/internal/bnet"
	"casyn/internal/flow"
	"casyn/internal/library"
	"casyn/internal/logic"
	"casyn/internal/mapper"
	"casyn/internal/place"
	"casyn/internal/subject"
	"casyn/internal/verify"
)

// ECOConfig parameterizes the ECO differential sweep. The zero value
// is not useful; use ECODefault for the standard run.
type ECOConfig struct {
	// Ks is the congestion-factor ladder the edit streams run at.
	Ks []float64
	// Workers lists the flow worker counts; every count must produce
	// byte-identical incremental results.
	Workers []int
	// Seed roots the deterministic edit streams (one stream per K,
	// identical across worker counts).
	Seed int64
	// Sets is the number of chained edit sets applied per K — each set
	// applies against the previous set's state, exercising ECO-of-ECO.
	Sets int
	// EditsPerSet is the number of operations drawn per edit set.
	EditsPerSet int
	// Verify tunes the equivalence checker (zero value = defaults).
	Verify verify.Options
	// Utilization sets the die sizing fraction (0 = the calibrated
	// 0.58 used by the top-level API).
	Utilization float64
}

// ECODefault is the sweep the acceptance tests run: both ends of the
// paper-relevant K range, serial vs parallel execution, two chained
// edit sets of four operations each.
func ECODefault() ECOConfig {
	return ECOConfig{
		Ks:          []float64{0, 1},
		Workers:     []int{1, 4},
		Seed:        1,
		Sets:        2,
		EditsPerSet: 4,
	}
}

// ECOCheck is the verdict for one edit set at one (K, workers): the
// incremental fingerprint and the from-scratch reference it matched.
type ECOCheck struct {
	K     float64
	Set   int
	Edits int
	// Fingerprint hashes the incremental iteration; Reference hashes
	// the from-scratch synthesis of the same edited design. RunECOSweep
	// fails unless they are equal, so a returned check always has
	// Fingerprint == Reference.
	Fingerprint string
	Reference   string
}

// ECOResult is a completed ECO harness run for one circuit.
type ECOResult struct {
	Name string
	// Base proves RunStateful's passive state capture: the base
	// iteration's fingerprint per K, checked byte-identical to a plain
	// RunOnce at the same K.
	Base map[float64]string
	// Checks maps each worker count to its per-(K, set) verdicts in
	// K-major, set-minor order.
	Checks map[int][]ECOCheck
	// Proofs holds the equivalence reports proving each edited
	// netlist against its edited subject DAG (one per (K, set)).
	Proofs []*verify.Report
}

// RunECOSweep drives one circuit through the ECO differential sweep.
// Any divergence between the incremental and from-scratch results, any
// cross-worker divergence, or any failed equivalence proof is an
// error; the Result describes a fully verified sweep.
func RunECOSweep(ctx context.Context, name string, p *logic.PLA, cfg ECOConfig) (*ECOResult, error) {
	if len(cfg.Ks) == 0 || len(cfg.Workers) == 0 || cfg.Sets <= 0 || cfg.EditsPerSet <= 0 {
		return nil, fmt.Errorf("diffharness: %s: degenerate ECO config", name)
	}
	n, err := bnet.FromPLA(p)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	d, err := subject.Decompose(n)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	util := cfg.Utilization
	if util == 0 {
		util = 0.58
	}
	area := float64(d.BaseGateCount()) * 4.6 / util
	layout, err := place.NewLayout(area, 1.0, library.RowHeight)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	// Seeded placement (the paper's methodology and the top-level API
	// default) so nudge and swap edits flow through legalization into
	// the routed result, not just the cover's wire estimates.
	fcfg := casyn.FlowConfig(layout, casyn.Options{})
	fcfg.FreshPlacement = false
	fcfg.KSchedule = cfg.Ks
	pc, err := flow.Prepare(ctx, d, fcfg)
	if err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}
	if err := flow.PrepareMapping(ctx, pc, fcfg); err != nil {
		return nil, fmt.Errorf("diffharness: %s: %w", name, err)
	}

	res := &ECOResult{Name: name, Base: make(map[float64]string), Checks: make(map[int][]ECOCheck)}
	// From-scratch reference fingerprints, computed once per (K, set)
	// on the first worker count and reused by the rest — which is
	// exactly what makes the cross-worker comparison transitive.
	type refKey struct{ ki, set int }
	refs := make(map[refKey]string)

	for wi, w := range cfg.Workers {
		wcfg := fcfg
		wcfg.Workers = w
		checks := make([]ECOCheck, 0, len(cfg.Ks)*cfg.Sets)
		for ki, k := range cfg.Ks {
			// One deterministic edit stream per K, replayed identically
			// for every worker count.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ki)))
			baseIt, st, err := flow.RunStateful(ctx, pc, k, wcfg)
			if err != nil {
				return nil, fmt.Errorf("diffharness: %s workers=%d K=%g: base: %w", name, w, k, err)
			}
			if wi == 0 {
				// State capture must be passive: the stateful base run
				// is byte-identical to a plain RunOnce.
				plain, err := flow.RunOnce(ctx, pc, k, wcfg)
				if err != nil {
					return nil, fmt.Errorf("diffharness: %s workers=%d K=%g: runonce: %w", name, w, k, err)
				}
				bfp, err := fingerprint(&baseIt)
				if err != nil {
					return nil, fmt.Errorf("diffharness: %s K=%g: %w", name, k, err)
				}
				pfp, err := fingerprint(&plain)
				if err != nil {
					return nil, fmt.Errorf("diffharness: %s K=%g: %w", name, k, err)
				}
				if bfp != pfp {
					return nil, fmt.Errorf("diffharness: %s K=%g: RunStateful diverges from RunOnce (%s vs %s)",
						name, k, bfp, pfp)
				}
				res.Base[k] = bfp
			}
			for set := 0; set < cfg.Sets; set++ {
				edits := mapper.RandomEdits(st.Prep, rng, cfg.EditsPerSet)
				if len(edits.Edits) == 0 {
					return nil, fmt.Errorf("diffharness: %s K=%g set=%d: design too small for random edits", name, k, set)
				}
				eit, st2, err := flow.RunECO(ctx, pc, st, edits, wcfg)
				if err != nil {
					return nil, fmt.Errorf("diffharness: %s workers=%d K=%g set=%d: eco: %w", name, w, k, set, err)
				}
				fp, err := fingerprint(&eit)
				if err != nil {
					return nil, fmt.Errorf("diffharness: %s K=%g set=%d: %w", name, k, set, err)
				}
				key := refKey{ki, set}
				want, ok := refs[key]
				if !ok {
					// From-scratch synthesis of the edited design in the
					// same placement context: a fresh flow context built
					// from the successor state's DAG and positions, run
					// through the ordinary (non-ECO) iteration.
					refPC := &flow.Context{
						DAG:    st2.Prep.DAG(),
						Pos:    st2.Prep.Pos(),
						POPads: st2.Prep.POPads(),
						PIPads: pc.PIPads,
						POList: pc.POList,
					}
					refIt, err := flow.RunOnce(ctx, refPC, k, wcfg)
					if err != nil {
						return nil, fmt.Errorf("diffharness: %s K=%g set=%d: reference: %w", name, k, set, err)
					}
					if want, err = fingerprint(&refIt); err != nil {
						return nil, fmt.Errorf("diffharness: %s K=%g set=%d: %w", name, k, set, err)
					}
					refs[key] = want
					// The edits changed the function on purpose; the
					// proof obligation is against the edited DAG.
					rep, err := prove(ctx, name, fmt.Sprintf("edited dag vs eco netlist (K=%g, set=%d)", k, set),
						st2.Prep.DAG(), eit.Netlist, cfg.Verify)
					if err != nil {
						return nil, err
					}
					res.Proofs = append(res.Proofs, rep)
				}
				if fp != want {
					return nil, fmt.Errorf(
						"diffharness: %s workers=%d K=%g set=%d (%d edits): incremental diverges from from-scratch (%s vs %s)",
						name, w, k, set, len(edits.Edits), fp, want)
				}
				checks = append(checks, ECOCheck{K: k, Set: set, Edits: len(edits.Edits), Fingerprint: fp, Reference: want})
				st = st2
			}
		}
		res.Checks[w] = checks
	}
	return res, nil
}
