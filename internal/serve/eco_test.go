package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"casyn"
	"casyn/internal/flow"
	"casyn/internal/logic"
	"casyn/internal/mapper"
	"casyn/internal/runstage"
	"casyn/internal/subject"
)

func postEco(t *testing.T, ts *httptest.Server, parent, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs/"+parent+"/eco", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	resp.Body.Close()
	return resp, m
}

// tinyEditableGate finds a live base gate of tinyPLA's subject DAG —
// the same DAG the daemon synthesizes for the spec — so the tests can
// submit a semantically valid edit.
func tinyEditableGate(t *testing.T) int {
	t.Helper()
	p, err := logic.ReadPLA(strings.NewReader(tinyPLA))
	if err != nil {
		t.Fatal(err)
	}
	d, err := casyn.SubjectFor(context.Background(), p, casyn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range d.LiveGates() {
		if tp := d.Gate(g).Type; tp == subject.Nand2 || tp == subject.Inv {
			return g
		}
	}
	t.Fatal("tinyPLA has no editable base gate")
	return -1
}

// TestEcoEndpoint drives the incremental path over HTTP: base job,
// then an ECO against it; the result must carry the ECO annotation,
// and an identical resubmission must come back byte-identical from
// the result cache.
func TestEcoEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":0}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	parent := m["id"].(string)
	if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
		res, err := job.Result()
		t.Fatalf("parent finished %s (%+v, %v)", job.Status(), res, err)
	}

	edits := fmt.Sprintf(`{"edits":[{"op":"nudge","gate":%d,"dx":5,"dy":0}]}`, tinyEditableGate(t))
	er, em := postEco(t, ts, parent, edits)
	if er.StatusCode != http.StatusAccepted {
		t.Fatalf("eco submit: %d (%v)", er.StatusCode, em)
	}
	eid := em["id"].(string)
	job := waitTerminal(t, s, eid)
	if job.Status() != StatusDone {
		res, err := job.Result()
		t.Fatalf("eco job finished %s (%+v, %v)", job.Status(), res, err)
	}
	res, _ := job.Result()
	if res == nil || res.ECO == nil {
		t.Fatalf("eco result missing annotation: %+v", res)
	}
	if res.ECO.Parent != parent || res.ECO.Edits != 1 || res.ECO.K != 0 || res.ECO.FastRoute {
		t.Fatalf("eco annotation %+v", res.ECO)
	}
	if res.Report == "" || res.NumCells == 0 {
		t.Fatalf("empty eco result: %+v", res)
	}

	// Identical resubmission: served from the result cache, byte-identical.
	er2, em2 := postEco(t, ts, parent, edits)
	if er2.StatusCode != http.StatusAccepted {
		t.Fatalf("eco resubmit: %d (%v)", er2.StatusCode, em2)
	}
	job2 := waitTerminal(t, s, em2["id"].(string))
	res2, _ := job2.Result()
	if res2 == nil || res2.Cache != "result" {
		t.Fatalf("resubmission missed the result cache: %+v", res2)
	}
	if res2.Report != res.Report {
		t.Error("cached eco result differs from the original")
	}

	// Chaining an ECO off an ECO is rejected.
	cr, cm := postEco(t, ts, eid, edits)
	if cr.StatusCode != http.StatusBadRequest {
		t.Errorf("eco-of-eco: %d (%v), want 400", cr.StatusCode, cm)
	}
}

// TestEcoRejections covers the endpoint's error contract: malformed
// bodies 400, unknown parent 404, unfinished parent 409.
func TestEcoRejections(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, Hooks: &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StagePrepare, AllK: true, Delay: 3 * time.Second},
	}}})

	if r, m := postEco(t, ts, "nope", `{"edits":[{"op":"nudge","gate":1,"dx":1,"dy":1}]}`); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown parent: %d (%v), want 404", r.StatusCode, m)
	}

	// A slow parent is not done: 409.
	resp, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":0}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	parent := m["id"].(string)
	waitRunning(t, s, parent)
	if r, m := postEco(t, ts, parent, `{"edits":[{"op":"nudge","gate":1,"dx":1,"dy":1}]}`); r.StatusCode != http.StatusConflict {
		t.Errorf("unfinished parent: %d (%v), want 409", r.StatusCode, m)
	}
	if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
		t.Fatalf("parent finished %s", job.Status())
	}

	for _, body := range []string{
		`{`,                              // malformed JSON
		`{}`,                             // no edits
		`{"edits":[]}`,                   // empty set
		`{"edits":[{"op":"warp"}]}`,      // unknown op
		`{"edits":[{"op":"nudge"}]}`,     // missing fields
		`{"edits":[],"typo_field":true}`, // unknown field
		`{"edits":[{"op":"nudge","gate":1,"dx":1,"dy":1}],"k":-1}`, // bad K
	} {
		if r, m := postEco(t, ts, parent, body); r.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: %d (%v), want 400", body, r.StatusCode, m)
		}
	}

	// A semantically invalid edit (out-of-range gate) passes admission
	// and fails in the eco stage.
	r, m := postEco(t, ts, parent, `{"edits":[{"op":"nudge","gate":999999,"dx":1,"dy":1}]}`)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("out-of-range gate rejected at admission: %d (%v)", r.StatusCode, m)
	}
	job := waitTerminal(t, s, m["id"].(string))
	if job.Status() != StatusFailed {
		t.Fatalf("out-of-range gate: job %s, want failed", job.Status())
	}
	_, jerr := job.Result()
	if jerr == nil || jerr.Stage != string(runstage.StageECO) {
		t.Errorf("failure did not identify the eco stage: %+v", jerr)
	}
}

// TestEcoJobSeededPlacement: ECO jobs run the seeded-placement chain
// cmd/casyn -eco runs. An exact job's report equals that chain run
// directly (flow.RunStateful, then flow.RunECO), and a fast job
// legalizes the edited netlist incrementally instead of re-placing it.
func TestEcoJobSeededPlacement(t *testing.T) {
	const specJSON = `{"bench":"spla","scale":0.05,"k":0.001}`
	spec, err := ParseJobSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.subjectPLA()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := spec.options()
	dag, err := casyn.SubjectFor(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	gate := -1
	for _, g := range dag.LiveGates() {
		if tp := dag.Gate(g).Type; tp == subject.Nand2 || tp == subject.Inv {
			gate = g
			break
		}
	}
	if gate < 0 {
		t.Fatal("no editable base gate")
	}
	editsJSON := fmt.Sprintf(`[{"op":"nudge","gate":%d,"dx":5,"dy":0}]`, gate)

	// Reference: the cmd/casyn -eco chain.
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := casyn.FlowConfig(layout, opts)
	cfg.FreshPlacement = false
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := flow.RunStateful(ctx, pc, opts.K, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edits, err := mapper.ParseEditSet([]byte(`{"edits":` + editsJSON + `}`))
	if err != nil {
		t.Fatal(err)
	}
	eit, _, err := flow.RunECO(ctx, pc, st, edits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := casyn.ResultFrom(dag, layout, &eit).Report()

	s, ts := testServer(t, Config{})
	resp, m := postJob(t, ts, specJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	parent := m["id"].(string)
	if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
		t.Fatalf("parent finished %s", job.Status())
	}
	runEco := func(fast bool) *JobResult {
		t.Helper()
		r, em := postEco(t, ts, parent, fmt.Sprintf(`{"edits":%s,"fast":%v}`, editsJSON, fast))
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("eco submit: %d (%v)", r.StatusCode, em)
		}
		job := waitTerminal(t, s, em["id"].(string))
		res, jerr := job.Result()
		if res == nil {
			t.Fatalf("eco fast=%v failed: %+v", fast, jerr)
		}
		return res
	}

	exact := runEco(false)
	if exact.Report != want {
		t.Errorf("exact eco report differs from the cmd/casyn -eco chain:\ndaemon:\n%s\nchain:\n%s", exact.Report, want)
	}
	if n := s.Metrics().Counters["eco.place_incremental"]; n != 0 {
		t.Fatalf("exact eco placed incrementally (%d)", n)
	}
	runEco(true)
	if n := s.Metrics().Counters["eco.place_incremental"]; n != 1 {
		t.Errorf("fast eco: eco.place_incremental = %d, want 1", n)
	}
}

// TestEcoAdaptiveParentMatchesLibrary: an ECO against an adaptive
// parent chains from the state of the loop's accepted iteration, so its
// Verilog equals flow.RunECO applied to RunAdaptive(...).State. The
// die is one where the loop accepts a steered iteration, with the
// router as it is and with rip-up skipping segments earlier reroutes
// relieved, so the edits re-cover under a non-uniform K-field.
func TestEcoAdaptiveParentMatchesLibrary(t *testing.T) {
	const specJSON = `{"bench":"spla","scale":0.1,"die_area":15600,"k_mode":"adaptive"}`
	spec, err := ParseJobSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.subjectPLA()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := spec.options()
	dag, err := casyn.SubjectFor(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := casyn.FlowConfig(layout, opts)
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Iterations[ares.BestIndex].MaxMult <= 1 {
		t.Fatalf("the loop accepted iteration %d, which has a uniform field", ares.BestIndex)
	}
	edits := mapper.RandomEdits(ares.State.Prep, rand.New(rand.NewSource(2)), 3)
	editsJSON, err := json.Marshal(edits)
	if err != nil {
		t.Fatal(err)
	}
	eit, _, err := flow.RunECO(ctx, pc, ares.State, edits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := eit.Netlist.WriteVerilog(&want, "casyn_top"); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Config{})
	resp, m := postJob(t, ts, specJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	parent := m["id"].(string)
	if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
		t.Fatalf("parent finished %s", job.Status())
	}
	r, em := postEco(t, ts, parent, fmt.Sprintf(`{%s,"verilog":true}`, strings.Trim(string(editsJSON), "{}")))
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("eco submit: %d (%v)", r.StatusCode, em)
	}
	res, jerr := waitTerminal(t, s, em["id"].(string)).Result()
	if res == nil {
		t.Fatalf("eco failed: %+v", jerr)
	}
	if res.ECO.KMode != "adaptive" || res.ECO.K != ares.State.K {
		t.Errorf("eco annotation %+v, want k_mode adaptive at K=%g", res.ECO, ares.State.K)
	}
	if res.Verilog != want.String() {
		t.Error("adaptive-parent eco verilog differs from RunECO on the loop's accepted state")
	}
}

// firstGateNudge is an edit set moving the first live NAND2 or
// inverter of the circuit specJSON describes 5 µm right.
func firstGateNudge(t *testing.T, specJSON string) string {
	t.Helper()
	spec, err := ParseJobSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.subjectPLA()
	if err != nil {
		t.Fatal(err)
	}
	dag, err := casyn.SubjectFor(context.Background(), p, spec.options())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range dag.LiveGates() {
		if tp := dag.Gate(g).Type; tp == subject.Nand2 || tp == subject.Inv {
			return fmt.Sprintf(`{"edits":[{"op":"nudge","gate":%d,"dx":5,"dy":0}]}`, g)
		}
	}
	t.Fatal("no NAND2 or inverter to nudge")
	return ""
}

// TestEcoAdaptiveParentSeedsBaseline: an adaptive parent stores its
// accepted state as its lineage's ECO baseline, so the first ECO
// against it neither misses the baseline cache nor re-runs the loop.
func TestEcoAdaptiveParentSeedsBaseline(t *testing.T) {
	const specJSON = `{"bench":"spla","scale":0.05,"k_mode":"adaptive"}`
	edits := firstGateNudge(t, specJSON)
	s, ts := testServer(t, Config{})
	resp, m := postJob(t, ts, specJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	parent := m["id"].(string)
	if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
		t.Fatalf("parent finished %s", job.Status())
	}
	loops := s.Metrics().Counters["flow.adaptive_iterations"]
	if loops == 0 {
		t.Fatal("the parent ran no adaptive iteration")
	}
	r, em := postEco(t, ts, parent, edits)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("eco submit: %d (%v)", r.StatusCode, em)
	}
	if res, jerr := waitTerminal(t, s, em["id"].(string)).Result(); res == nil {
		t.Fatalf("eco failed: %+v", jerr)
	}
	c := s.Metrics().Counters
	if n := c["serve.cache.eco_misses"]; n != 0 {
		t.Errorf("serve.cache.eco_misses = %d, want 0", n)
	}
	if n := c["flow.adaptive_iterations"]; n != loops {
		t.Errorf("flow.adaptive_iterations %d -> %d: the eco re-ran the loop", loops, n)
	}
}

// TestEcoAdaptiveParentDefaultK: an adaptive parent runs an omitted k
// at flow.DefaultAdaptiveBaseK, so parents with k omitted and with k
// spelled out share one result, and an ECO against either is one job:
// the second ECO is served from the result cache, naming its own
// parent, and no ECO baseline re-runs the closed loop.
func TestEcoAdaptiveParentDefaultK(t *testing.T) {
	const base = `"bench":"spla","scale":0.05,"k_mode":"adaptive"`
	edits := firstGateNudge(t, "{"+base+"}")

	s, ts := testServer(t, Config{})
	var parents []string
	var ecos []*JobResult
	for _, k := range []string{"", `,"k":` + strconv.FormatFloat(flow.DefaultAdaptiveBaseK, 'g', -1, 64)} {
		resp, m := postJob(t, ts, "{"+base+k+"}")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
		}
		parent := m["id"].(string)
		if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
			t.Fatalf("parent finished %s", job.Status())
		}
		r, em := postEco(t, ts, parent, edits)
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("eco submit: %d (%v)", r.StatusCode, em)
		}
		res, jerr := waitTerminal(t, s, em["id"].(string)).Result()
		if res == nil {
			t.Fatalf("eco failed: %+v", jerr)
		}
		parents = append(parents, parent)
		ecos = append(ecos, res)
	}
	for i, res := range ecos {
		if res.ECO.K != flow.DefaultAdaptiveBaseK || res.ECO.Parent != parents[i] {
			t.Errorf("eco %d annotation %+v, want parent %s at K=%g", i, res.ECO, parents[i], flow.DefaultAdaptiveBaseK)
		}
	}
	if ecos[1].Cache != "result" || ecos[1].Report != ecos[0].Report {
		t.Errorf("second eco was not served from the result cache (cache %q)", ecos[1].Cache)
	}
	if n := s.Metrics().Counters["serve.cache.eco_misses"]; n != 0 {
		t.Errorf("serve.cache.eco_misses = %d, want 0", n)
	}
}

// TestEcoFastAdaptiveParentReroutesIncrementally: a fast ECO against an
// adaptive parent chains from the accepted iteration's routing state,
// so it reroutes incrementally (nets kept, no full reroute) and its
// Verilog equals fast flow.RunECO applied to RunAdaptive(...).State.
func TestEcoFastAdaptiveParentReroutesIncrementally(t *testing.T) {
	const specJSON = `{"bench":"spla","scale":0.1,"die_area":12281,"k_mode":"adaptive"}`
	spec, err := ParseJobSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.subjectPLA()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := spec.options()
	dag, err := casyn.SubjectFor(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := casyn.FlowConfig(layout, opts)
	cfg.FastECORoute = true
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	edits := mapper.RandomEdits(ares.State.Prep, rand.New(rand.NewSource(2)), 3)
	editsJSON, err := json.Marshal(edits)
	if err != nil {
		t.Fatal(err)
	}
	eit, _, err := flow.RunECO(ctx, pc, ares.State, edits, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := eit.Netlist.WriteVerilog(&want, "casyn_top"); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Config{})
	resp, m := postJob(t, ts, specJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	parent := m["id"].(string)
	if job := waitTerminal(t, s, parent); job.Status() != StatusDone {
		t.Fatalf("parent finished %s", job.Status())
	}
	r, em := postEco(t, ts, parent, fmt.Sprintf(`{%s,"fast":true,"verilog":true}`, strings.Trim(string(editsJSON), "{}")))
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("eco submit: %d (%v)", r.StatusCode, em)
	}
	res, jerr := waitTerminal(t, s, em["id"].(string)).Result()
	if res == nil {
		t.Fatalf("eco failed: %+v", jerr)
	}
	if c := s.Metrics().Counters; c["eco.route_nets_kept"] == 0 {
		t.Error("route_nets_kept=0, want an incremental reroute")
	}
	if res.Verilog != want.String() {
		t.Error("fast adaptive-parent eco verilog differs from fast RunECO on the loop's accepted state")
	}
}
