package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"casyn"
	"casyn/internal/flow"
	"casyn/internal/runstage"
)

// tinyPLA is a fast, real circuit for API-level tests.
const tinyPLA = `.i 3
.o 1
.p 3
11- 1
1-1 1
-11 1
.e
`

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
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

func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("no job %q", id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.Status() != StatusRunning {
		if job.Status().Terminal() {
			t.Fatalf("job %s finished (%s) before it was observed running", id, job.Status())
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("no job %q", id)
	}
	select {
	case <-job.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %s", id, job.Status())
	}
	return job
}

func TestSubmitStatusResult(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":0}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	id := m["id"].(string)
	waitTerminal(t, s, id)

	sr, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var view jobView
	if err := json.NewDecoder(sr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if view.Status != StatusDone || !view.Terminal {
		t.Fatalf("status view: %+v", view)
	}

	rr, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var body resultBody
	if err := json.NewDecoder(rr.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || body.Result == nil || body.Error != nil {
		t.Fatalf("result: %d %+v", rr.StatusCode, body)
	}
	if body.Result.Report == "" || body.Result.NumCells == 0 {
		t.Fatalf("empty result: %+v", body.Result)
	}
	if body.Result.Verilog != "" {
		t.Error("verilog included though the spec did not ask for it")
	}
}

func TestBadSpecRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []string{
		`{`,                                  // malformed JSON
		`{}`,                                 // no circuit
		`{"pla":"x","bench":"spla"}`,         // both
		`{"pla":"not a pla"}`,                // unparseable
		`{"bench":"nope"}`,                   // unknown class
		`{"bench":"spla","k":-1}`,            // negative K
		`{"bench":"spla","typo_field":true}`, // unknown field
		`{"bench":"spla","workers":9999}`,    // over the bound
	}
	for _, body := range cases {
		resp, m := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400 (%v)", body, resp.StatusCode, m)
		}
		if m["error"] == "" {
			t.Errorf("body %q: missing error message", body)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/jobs/nope", "/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestAdmissionControl fills the queue past capacity and checks the
// 429 + Retry-After contract.
func TestAdmissionControl(t *testing.T) {
	// One worker held busy by a delay fault; queue of 1.
	hooks := &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StagePrepare, AllK: true, Delay: 5 * time.Second},
	}}
	s, ts := testServer(t, Config{QueueCap: 1, Workers: 1, Hooks: hooks})

	// First job occupies the worker (wait until it actually runs, so it
	// has left the queue), second fills the queue.
	spec := `{"pla":` + strconv.Quote(tinyPLA) + `,"k":0}`
	r1, m1 := postJob(t, ts, spec)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	waitRunning(t, s, m1["id"].(string))
	r2, _ := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":1}`)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", r2.StatusCode)
	}

	r3, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":2}`)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %d (%v)", r3.StatusCode, m)
	}
	ra := r3.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", ra)
	}

	// Queue pressure is visible on /healthz.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthBody
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "ok" || health.Pressure <= 0 {
		t.Errorf("healthz under load: %+v", health)
	}

	// Rejection is visible on /metrics.
	if got := s.rec.Snapshot().Counters["serve.jobs_rejected_full"]; got != 1 {
		t.Errorf("jobs_rejected_full = %d, want 1", got)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	hooks := &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StagePrepare, AllK: true, Delay: 30 * time.Second},
	}}
	s, ts := testServer(t, Config{QueueCap: 4, Workers: 1, Hooks: hooks})

	spec := `{"pla":` + strconv.Quote(tinyPLA) + `,"k":0}`
	_, m1 := postJob(t, ts, spec)
	_, m2 := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":1}`)
	running, queued := m1["id"].(string), m2["id"].(string)
	waitRunning(t, s, running)

	for _, id := range []string{queued, running} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %d", id, resp.StatusCode)
		}
	}
	for _, id := range []string{queued, running} {
		job := waitTerminal(t, s, id)
		if job.Status() != StatusCanceled {
			t.Errorf("job %s: %s, want canceled", id, job.Status())
		}
		_, jerr := job.Result()
		if jerr == nil || !jerr.Canceled {
			t.Errorf("job %s: error %+v, want canceled flag", id, jerr)
		}
	}
}

func TestJobTimeout(t *testing.T) {
	hooks := &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, AllK: true, Delay: 30 * time.Second},
	}}
	s, ts := testServer(t, Config{Workers: 1, Hooks: hooks})
	_, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":0,"timeout_ms":100}`)
	job := waitTerminal(t, s, m["id"].(string))
	if job.Status() != StatusCanceled {
		t.Fatalf("status %s, want canceled (deadline)", job.Status())
	}
	_, jerr := job.Result()
	if jerr == nil || !jerr.Timeout {
		t.Fatalf("error %+v, want timeout flag", jerr)
	}
}

// TestCanceledSweepNotCached is a regression test: a sweep whose job
// deadline (or cancellation) truncates the K ladder after a completed
// rung must be recorded as canceled — not done with a truncated
// Iterations list — and must never reach the result cache, where it
// would be served to future identical submissions as an exact repeat.
func TestCanceledSweepNotCached(t *testing.T) {
	hooks := &runstage.Hooks{Faults: []runstage.Fault{
		{Stage: runstage.StageMap, K: 1, Delay: 30 * time.Second},
	}}
	s, ts := testServer(t, Config{Workers: 1, Hooks: hooks})
	// Rung K=0 finishes in milliseconds; rung K=1 stalls on the fault
	// until the job deadline expires with a partial best in hand.
	_, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k_schedule":[0,1],"timeout_ms":2000}`)
	job := waitTerminal(t, s, m["id"].(string))
	if job.Status() != StatusCanceled {
		t.Fatalf("status %s, want canceled (deadline mid-sweep)", job.Status())
	}
	res, jerr := job.Result()
	if res != nil {
		t.Fatalf("truncated sweep reported a result: %+v", res)
	}
	if jerr == nil || !jerr.Timeout {
		t.Fatalf("error %+v, want timeout flag", jerr)
	}
	if n := s.resCache.len(); n != 0 {
		t.Fatalf("result cache holds %d entries; a canceled sweep must never be cached", n)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{})
	_, m := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":0}`)
	waitTerminal(t, s, m["id"].(string))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"casyn_serve_jobs_submitted_total 1",
		"casyn_serve_jobs_completed_total 1",
		"# TYPE casyn_serve_queue_depth gauge",
		"casyn_serve_job_ms_bucket",
		"casyn_serve_stage_ms_map_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRouteMetricsAfterCongestedJob drives a job whose floorplan is
// tight enough that the rip-up/reroute negotiation runs, and asserts
// the parallel-routing telemetry — region and boundary counters plus
// the per-round overflow histogram — reaches /metrics through the
// daemon's fold. The die area pins ~80% utilization for the scaled
// benchmark, which overflows under the calibrated capacity model.
func TestRouteMetricsAfterCongestedJob(t *testing.T) {
	s, ts := testServer(t, Config{})
	_, m := postJob(t, ts, `{"bench":"spla","scale":0.25,"k":0,"die_area":27703}`)
	job := waitTerminal(t, s, m["id"].(string))
	if job.Status() != StatusDone {
		t.Fatalf("status %s, want done", job.Status())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"casyn_route_regions_total",
		"casyn_route_boundary_nets_total",
		"casyn_route_ripup_iterations_total",
		"# TYPE casyn_route_round_overflow histogram",
		"casyn_route_round_overflow_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The job congested, so the negotiation must actually have
	// partitioned work: regions strictly positive, not just registered.
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "casyn_route_regions_total "); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(v)); err != nil || n <= 0 {
				t.Errorf("casyn_route_regions_total = %q, want > 0", v)
			}
			return
		}
	}
	t.Error("casyn_route_regions_total sample line not found")
}

// TestResultCacheByteIdentical submits the same job twice and checks
// the repeat is served from the result cache with an identical body.
func TestResultCacheByteIdentical(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := `{"pla":` + strconv.Quote(tinyPLA) + `,"k":0,"verilog":true}`

	_, m1 := postJob(t, ts, spec)
	j1 := waitTerminal(t, s, m1["id"].(string))
	r1, _ := j1.Result()
	if r1 == nil {
		t.Fatal("first job failed")
	}
	if r1.Cache != "cold" {
		t.Fatalf("first job cache %q, want cold", r1.Cache)
	}

	_, m2 := postJob(t, ts, spec)
	j2 := waitTerminal(t, s, m2["id"].(string))
	r2, _ := j2.Result()
	if r2 == nil {
		t.Fatal("second job failed")
	}
	if r2.Cache != "result" {
		t.Fatalf("second job cache %q, want result", r2.Cache)
	}
	if r1.Report != r2.Report || r1.Verilog != r2.Verilog {
		t.Error("cached result differs from computed result")
	}

	// A K change must miss the result cache but hit the prepared cache.
	_, m3 := postJob(t, ts, `{"pla":`+strconv.Quote(tinyPLA)+`,"k":0.5,"verilog":true}`)
	j3 := waitTerminal(t, s, m3["id"].(string))
	r3, _ := j3.Result()
	if r3 == nil {
		t.Fatal("third job failed")
	}
	if r3.Cache != "prepared" {
		t.Fatalf("third job cache %q, want prepared", r3.Cache)
	}
}

// TestEquivalentSpecsShareCache: spellings of one computation — a zero
// scale, partition, seed or aspect ratio beside its explicit default,
// k beside a k_schedule that ignores it, an adaptive job's zero k
// beside the BaseK it runs with, and stop_at_first_routable on a job
// that runs no sweep — share prep and result keys, so the second
// submission is served from the result cache.
func TestEquivalentSpecsShareCache(t *testing.T) {
	pla := `"pla":` + strconv.Quote(tinyPLA)
	pairs := [][2]string{
		{`{"bench":"spla"}`, `{"bench":"spla","scale":1}`},
		{`{` + pla + `}`, `{` + pla + `,"partition":"pdp"}`},
		{`{` + pla + `}`, `{` + pla + `,"seed":1}`},
		{`{` + pla + `}`, `{` + pla + `,"aspect_ratio":1}`},
		{`{` + pla + `,"k":0.5,"k_schedule":[0,0.001]}`, `{` + pla + `,"k_schedule":[0,0.001]}`},
		{`{` + pla + `,"k_mode":"adaptive"}`, `{` + pla + `,"k_mode":"adaptive","k":` + strconv.FormatFloat(flow.DefaultAdaptiveBaseK, 'g', -1, 64) + `}`},
		{`{` + pla + `,"k":0.5}`, `{` + pla + `,"k":0.5,"stop_at_first_routable":true}`},
	}
	for i, pair := range pairs {
		var keys [2][2]string
		for j, body := range pair {
			spec, err := ParseJobSpec(strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if keys[j][0], err = spec.PrepKey(); err != nil {
				t.Fatal(err)
			}
			if keys[j][1], err = spec.ResultKey(); err != nil {
				t.Fatal(err)
			}
		}
		if keys[0] != keys[1] {
			t.Errorf("pair %d: %s and %s have different keys", i, pair[0], pair[1])
		}
		if i == 0 {
			continue // a full-size benchmark: the keys are the contract
		}
		s, ts := testServer(t, Config{})
		var res [2]*JobResult
		for j, body := range pair {
			_, m := postJob(t, ts, body)
			res[j], _ = waitTerminal(t, s, m["id"].(string)).Result()
			if res[j] == nil {
				t.Fatalf("pair %d: job %s failed", i, body)
			}
		}
		if res[1].Cache != "result" || res[1].Report != res[0].Report {
			t.Errorf("pair %d: second job served %q, want the first job's result from cache", i, res[1].Cache)
		}
	}
}

// TestDaemonMatchesCLI is the differential acceptance suite: every
// example circuit × {K=0, K=1, adaptive}, synthesized by the daemon
// (cold, then warm through both caches), must be byte-identical to the
// one-shot casyn.Synthesize path.
func TestDaemonMatchesCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every example circuit twice per K")
	}
	circuits, err := filepath.Glob(filepath.Join("..", "..", "examples", "circuits", "*.pla"))
	if err != nil || len(circuits) == 0 {
		t.Fatalf("no example circuits: %v", err)
	}

	// Each mode is a library options value and the job-spec fields
	// that ask the daemon for the same run.
	modes := []struct {
		name string
		opts casyn.Options
		spec string
	}{
		{"K=0", casyn.Options{K: 0}, `"k":0`},
		{"K=1", casyn.Options{K: 1}, `"k":1`},
		{"adaptive", casyn.Options{Adaptive: true}, `"k_mode":"adaptive"`},
		// An example circuit's die is too small for a derived inter-die
		// pin budget, so the multi-die row leaves it unchecked.
		{"adaptive dies=2", casyn.Options{Adaptive: true, Dies: 2, InterDiePinBudget: -1},
			`"k_mode":"adaptive","dies":2,"die_pin_budget":-1`},
	}

	s, ts := testServer(t, Config{Workers: 2})
	var mu sync.Mutex
	refs := make(map[string]*casyn.Result) // path|mode → one-shot result

	var wg sync.WaitGroup
	for _, path := range circuits {
		for _, mode := range modes {
			wg.Add(1)
			go func(path, name string, opts casyn.Options) {
				defer wg.Done()
				p, err := casyn.ReadPLAFile(path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				res, err := casyn.Synthesize(p, opts)
				if err != nil {
					t.Errorf("%s %s: %v", path, name, err)
					return
				}
				mu.Lock()
				refs[path+"|"+name] = res
				mu.Unlock()
			}(path, mode.name, mode.opts)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	check := func(pass string, wantCache map[string]bool) {
		for _, path := range circuits {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range modes {
				body := fmt.Sprintf(`{"pla":%s,%s,"verilog":true}`, strconv.Quote(string(raw)), mode.spec)
				_, m := postJob(t, ts, body)
				job := waitTerminal(t, s, m["id"].(string))
				got, jerr := job.Result()
				if got == nil {
					t.Fatalf("[%s] %s %s failed: %+v", pass, path, mode.name, jerr)
				}
				if !wantCache[got.Cache] {
					t.Errorf("[%s] %s %s served from %q cache", pass, path, mode.name, got.Cache)
				}
				ref := refs[path+"|"+mode.name]
				if got.Report != ref.Report() {
					t.Errorf("[%s] %s %s report mismatch:\ndaemon:\n%s\ncli:\n%s",
						pass, path, mode.name, got.Report, ref.Report())
				}
				var vb strings.Builder
				if err := ref.Mapped.WriteVerilog(&vb, "casyn_top"); err != nil {
					t.Fatal(err)
				}
				if got.Verilog != vb.String() {
					t.Errorf("[%s] %s %s verilog mismatch", pass, path, mode.name)
				}
			}
		}
	}
	// Cold pass: K=0 builds the prefix, the other modes of the same
	// circuit may already share it. Warm pass: everything repeats exactly.
	check("cold", map[string]bool{"cold": true, "prepared": true})
	check("warm", map[string]bool{"result": true})
}

func TestLRU(t *testing.T) {
	c := newLRU[int](2)
	c.add("a", 1)
	c.add("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	if ev := c.add("c", 3); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (a was touched more recently)")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Error("a lost")
	}
	// Disabled cache.
	d := newLRU[int](0)
	d.add("x", 1)
	if _, ok := d.get("x"); ok {
		t.Error("disabled cache retained an entry")
	}
}

func TestJobTableEviction(t *testing.T) {
	s, ts := testServer(t, Config{MaxJobs: 3, Workers: 1})
	var ids []string
	for i := 0; i < 5; i++ {
		// Distinct K so each job is distinct; tiny circuit so they finish.
		_, m := postJob(t, ts, fmt.Sprintf(`{"pla":%s,"k":%d}`, strconv.Quote(tinyPLA), i))
		id := m["id"].(string)
		ids = append(ids, id)
		waitTerminal(t, s, id)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 3 {
		t.Fatalf("job table holds %d, want <= 3", n)
	}
	// The newest job must still be there; the oldest must be gone.
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Error("newest job evicted")
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest terminal job not evicted")
	}
}
