package flow

import (
	"context"
	"errors"
	"testing"

	"casyn/internal/runstage"
	"casyn/internal/verify"
)

// TestConfigVerifyProvesIterations: with Config.Verify set, every
// iteration carries a proof that the mapped netlist matches the
// subject DAG, and on SPLA that proof comes from the BDD backend.
func TestConfigVerifyProvesIterations(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.Verify = true
	cfg.KSchedule = []float64{0, 0.5}
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(res.Iterations))
	}
	for _, it := range res.Iterations {
		if it.Verify == nil {
			t.Fatalf("K=%g: no verification report", it.K)
		}
		if !it.Verify.Equivalent || !it.Verify.Proven {
			t.Errorf("K=%g: mapped netlist not proven equivalent: %s", it.K, it.Verify)
		}
		if it.Verify.Method != verify.MethodBDD {
			t.Errorf("K=%g: proof by %s, want the BDD backend", it.K, it.Verify.Method)
		}
	}
}

// TestConfigVerifyParallelMatchesSerial: the verification reports are
// identical whether the K-sweep runs serially or across workers.
func TestConfigVerifyParallelMatchesSerial(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.Verify = true
	cfg.KSchedule = []float64{0, 0.5}
	serial, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Iterations {
		a, b := serial.Iterations[i].Verify, par.Iterations[i].Verify
		if a == nil || b == nil {
			t.Fatalf("iteration %d: missing report (serial=%v parallel=%v)", i, a, b)
		}
		if a.Method != b.Method || a.Equivalent != b.Equivalent || a.Proven != b.Proven ||
			a.VectorsSimulated != b.VectorsSimulated {
			t.Errorf("iteration %d: reports differ: serial %s vs parallel %s", i, a, b)
		}
	}
}

// TestVerifyStageFaultDegrades: an injected verify-stage failure on one
// K degrades that iteration without losing the sweep, like any other
// stage.
func TestVerifyStageFaultDegrades(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.Verify = true
	cfg.KSchedule = []float64{0, 0.5}
	boom := errors.New("injected verify failure")
	cfg.Hooks = &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageVerify, K: 0.5, Err: boom},
	}}
	res, err := Run(context.Background(), pc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ok, failed int
	for _, it := range res.Iterations {
		if it.Err != nil {
			failed++
			se := runstage.AsStage(it.Err)
			if se == nil || se.Stage != runstage.StageVerify || !errors.Is(it.Err, boom) {
				t.Errorf("K=%g: wrong failure: %v", it.K, it.Err)
			}
		} else {
			ok++
			if it.Verify == nil || !it.Verify.Proven {
				t.Errorf("K=%g: surviving iteration unverified", it.K)
			}
		}
	}
	if ok != 1 || failed != 1 {
		t.Errorf("ok=%d failed=%d, want 1/1", ok, failed)
	}
}

// TestVerifyOptsFlowThrough: VerifyOpts reach the checker (a SimOnly
// run can never prove equivalence).
func TestVerifyOptsFlowThrough(t *testing.T) {
	pc, cfg := prepared(t, 0.55)
	cfg.Verify = true
	cfg.VerifyOpts = verify.Options{SimOnly: true}
	it, err := RunOnce(context.Background(), pc, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if it.Verify == nil {
		t.Fatal("no verification report")
	}
	if !it.Verify.Equivalent {
		t.Fatalf("simulation found a mismatch: %s", it.Verify)
	}
	if it.Verify.Proven {
		t.Error("SimOnly run claims a proof")
	}
}
