package serve

// Daemon-side tests for multi-die jobs ("dies" > 1 in the spec): the
// field must validate, shape the cache keys, run the k-way partition
// end to end with a report byte-identical to cmd/casyn, and be
// rejected as an ECO lineage. The ECO k_mode annotation regression
// also lives here: an adaptive parent's ECO runs under the parent's
// K-field, and the result says so.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/logic"
	"casyn/internal/obs"
)

func TestDiesSpecValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []string{
		`{"bench":"spla","dies":-1}`,                         // negative
		`{"bench":"spla","dies":65}`,                         // over MaxDies
		`{"bench":"spla","die_pin_budget":8}`,                // budget without dies
		`{"bench":"spla","dies":1,"die_pin_budget":8}`,       // single die is not multi-die
		`{"bench":"spla","dies":2,"die_pin_budget":-2}`,      // below the -1 sentinel
		`{"bench":"spla","dies":2,"die_pin_budget":2000000}`, // over MaxDiePins
	}
	for _, body := range cases {
		resp, m := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400 (%v)", body, resp.StatusCode, m)
		}
	}
	accepted := []string{
		`{"bench":"spla","dies":2,"k_mode":"adaptive"}`, // the controller steers the k-way prefix
	}
	for _, body := range accepted {
		if _, err := ParseJobSpec(strings.NewReader(body)); err != nil {
			t.Errorf("body %q rejected: %v", body, err)
		}
	}
}

// TestDiesCacheKeys pins the key contract: dies and the replication
// proof (verify) shape the prepared prefix, the pin budget only the
// result; single-die keys are byte-stable against the new fields.
func TestDiesCacheKeys(t *testing.T) {
	base := JobSpec{Bench: "spla", Scale: 0.02}
	key := func(s JobSpec) string {
		t.Helper()
		k, err := s.PrepKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	rkey := func(s JobSpec) string {
		t.Helper()
		k, err := s.ResultKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	single, multi := base, base
	multi.Dies = 2
	if key(single) == key(multi) {
		t.Error("dies=2 shares a prep key with single-die")
	}
	verified := multi
	verified.Verify = true
	if key(multi) == key(verified) {
		t.Error("multi-die prep key ignores verify (the replication proof runs at prep)")
	}
	// Single-die: verify stays out of the prefix, as before.
	sv := single
	sv.Verify = true
	if key(single) != key(sv) {
		t.Error("single-die prep key changed with verify")
	}

	budget := multi
	budget.DiePinBudget = 16
	if key(multi) != key(budget) {
		t.Error("pin budget leaked into the prep key (it only gates routing)")
	}
	if rkey(multi) == rkey(budget) {
		t.Error("pin budget does not split the result key")
	}
}

// TestDiesJobEndToEnd runs multi-die jobs through the daemon and
// checks each result against the library running the same options: the
// report must be byte-identical and the k-way facts populated. The
// library run must build the k-way prefix exactly once; building it a
// second time re-partitions the already-replicated subject and makes
// the two front ends disagree.
func TestDiesJobEndToEnd(t *testing.T) {
	tiny, err := logic.ReadPLA(strings.NewReader(tinyPLA))
	if err != nil {
		t.Fatal(err)
	}
	spla, err := bench.Generate(bench.SPLA.ScaledSpec(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec string
		pla  *logic.PLA
		opts casyn.Options
	}{
		// tinyPLA's die is a handful of gcells: the derated boundary
		// capacity truncates to an auto budget of 0, which the admission
		// check (correctly) fails. An explicit budget keeps the tiny job
		// routable while still exercising the admission path.
		{"tiny", `{"pla":` + strconv.Quote(tinyPLA) + `,"k":0,"dies":2,"die_pin_budget":64,"verify":true}`,
			tiny, casyn.Options{Dies: 2, InterDiePinBudget: 64, Verify: true, Workers: 1}},
		// A real 4-way partition with cut-driver replication.
		{"spla", `{"bench":"spla","scale":0.25,"k":0.001,"dies":4}`,
			spla, casyn.Options{K: 0.001, Dies: 4, Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := testServer(t, Config{})
			resp, m := postJob(t, ts, tc.spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
			}
			job := waitTerminal(t, s, m["id"].(string))
			res, jerr := job.Result()
			if jerr != nil {
				t.Fatalf("multi-die job failed: %+v", jerr)
			}
			if res.Dies != tc.opts.Dies {
				t.Errorf("dies = %d, want %d", res.Dies, tc.opts.Dies)
			}
			if !strings.Contains(res.Report, "dies:") {
				t.Errorf("report missing the dies line:\n%s", res.Report)
			}

			rec := obs.New()
			want, err := casyn.SynthesizeContext(obs.WithRecorder(context.Background(), rec), tc.pla, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if n := rec.Snapshot().SpanCounts()["map.prepare"]; n != 1 {
				t.Errorf("library run recorded %d map.prepare spans, want 1", n)
			}
			if res.Report != want.Report() {
				t.Errorf("daemon report differs from the library:\n--- daemon ---\n%s--- library ---\n%s",
					res.Report, want.Report())
			}
			if res.ReplicatedGates != want.ReplicatedGates || res.CrossRegionNets != want.CrossRegionNets {
				t.Errorf("k-way facts (%d replicated, %d cross-region) differ from the library (%d, %d)",
					res.ReplicatedGates, res.CrossRegionNets, want.ReplicatedGates, want.CrossRegionNets)
			}
		})
	}
}

// TestEcoMultiDieParentRejected pins the scope boundary: the ECO
// chain's incremental state is single-die, so a multi-die parent is
// refused at admission.
func TestEcoMultiDieParentRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":0,"dies":2,"die_pin_budget":64}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	parent := m["id"].(string)
	if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
		t.Fatalf("parent finished %s", job.Status())
	}
	edits := fmt.Sprintf(`{"edits":[{"op":"nudge","gate":%d,"dx":5,"dy":0}]}`, tinyEditableGate(t))
	r, em := postEco(t, ts, parent, edits)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("eco on multi-die parent: %d (%v), want 400", r.StatusCode, em)
	}
	if msg, _ := em["error"].(string); !strings.Contains(msg, "multi-die") {
		t.Errorf("rejection does not name the multi-die parent: %v", em)
	}
}

// TestEcoAnnotatesKMode is the regression for the ECO k_mode
// annotation: an ECO against an adaptive parent chains from the state
// of the loop's accepted iteration, so it runs under the parent's mode
// at the loop's baseline K (the calibrated default when the spec left
// k unset, the ECO's k when it sets one), and the annotation reports
// both. The two lineages must not share a result-cache entry.
func TestEcoAnnotatesKMode(t *testing.T) {
	s, ts := testServer(t, Config{})
	edits := fmt.Sprintf(`"edits":[{"op":"nudge","gate":%d,"dx":5,"dy":0}]`, tinyEditableGate(t))

	submit := func(spec string) *Job {
		t.Helper()
		resp, m := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
		}
		job := waitTerminal(t, s, m["id"].(string))
		if job.Status() != StatusDone {
			res, jerr := job.Result()
			t.Fatalf("job finished %s (%+v, %v)", job.Status(), res, jerr)
		}
		return job
	}
	eco := func(parent, extra string) *JobResult {
		t.Helper()
		r, em := postEco(t, ts, parent, "{"+edits+extra+"}")
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("eco submit: %d (%v)", r.StatusCode, em)
		}
		job := waitTerminal(t, s, em["id"].(string))
		if job.Status() != StatusDone {
			res, jerr := job.Result()
			t.Fatalf("eco finished %s (%+v, %v)", job.Status(), res, jerr)
		}
		res, _ := job.Result()
		if res == nil || res.ECO == nil {
			t.Fatalf("eco result missing annotation: %+v", res)
		}
		return res
	}
	check := func(tag string, res *JobResult, mode string, k float64) {
		t.Helper()
		if res.ECO.KMode != mode || res.ECO.K != k {
			t.Errorf("%s: eco annotation %+v, want k_mode %s at K=%g", tag, res.ECO, mode, k)
		}
	}

	adaptive := submit(`{"pla":` + strconv.Quote(tinyPLA) + `,"k":0.001,"k_mode":"adaptive"}`)
	check("adaptive parent", eco(adaptive.ID, ""), "adaptive", 0.001)
	// An explicit k is the baseline the loop reruns at.
	check("adaptive parent, k 0.002", eco(adaptive.ID, `,"k":0.002`), "adaptive", 0.002)

	// With k omitted the loop runs at the calibrated default baseline,
	// as its iteration rows say, and the edits run there too — not at
	// the spec's K=0, which is DAGON min-area covering.
	dflt := submit(`{"pla":` + strconv.Quote(tinyPLA) + `,"k_mode":"adaptive"}`)
	if pres, _ := dflt.Result(); pres == nil || len(pres.Iterations) == 0 || pres.Iterations[0].K != 0.001 {
		t.Fatalf("k-omitted adaptive parent rows %+v, want the 0.001 baseline", pres)
	}
	check("k-omitted adaptive parent", eco(dflt.ID, ""), "adaptive", 0.001)

	fixed := submit(`{"pla":` + strconv.Quote(tinyPLA) + `,"k":0.001}`)
	fres := eco(fixed.ID, "")
	check("fixed parent", fres, "fixed", 0.001)

	// Same prefix, same K, same edits — but differently-moded parents
	// must not serve each other's cached result.
	if fres.Cache == "result" {
		t.Error("fixed-parent eco served the adaptive-parent cache entry")
	}
}
