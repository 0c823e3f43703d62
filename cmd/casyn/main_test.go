package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/logic"
	"casyn/internal/obs"
	"casyn/internal/subject"
)

const add2PLA = "../../examples/circuits/add2.pla"

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestMetricsFlagEmitsJSONL is the CLI acceptance test: -metrics on an
// example circuit must emit valid JSONL with at least one span per
// pipeline stage and a congestion histogram.
func TestMetricsFlagEmitsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	code, out, errb := runCLI(t, "-pla", add2PLA, "-k", "0.001", "-metrics", path)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout %q, stderr %q)", code, out, errb)
	}
	if !strings.Contains(out, "routing violations") {
		t.Errorf("report missing from stdout: %q", out)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("metrics file is not valid JSONL: %v", err)
	}
	counts := snap.SpanCounts()
	for _, stage := range []string{"stage.prepare", "stage.map", "stage.place", "stage.route"} {
		if counts[stage] < 1 {
			t.Errorf("no %q span in metrics (have %v)", stage, counts)
		}
	}
	if counts["flow.iteration"] < 1 {
		t.Error("no flow.iteration span in metrics")
	}
	h, ok := snap.Histograms["route.congestion"]
	if !ok {
		t.Fatal("no congestion histogram in metrics")
	}
	if h.Count == 0 || len(h.Counts) != len(h.Bounds)+1 {
		t.Errorf("degenerate congestion histogram: %+v", h)
	}
	if snap.Counters["route.nets"] == 0 {
		t.Error("route.nets counter missing or zero")
	}
}

// TestPromAndPprofFlags checks the Prometheus dump and profile capture
// land on disk.
func TestPromAndPprofFlags(t *testing.T) {
	dir := t.TempDir()
	prom := filepath.Join(dir, "metrics.prom")
	pprof := filepath.Join(dir, "cpu.pprof")
	code, _, errb := runCLI(t, "-pla", add2PLA, "-prom", prom, "-pprof", "cpu", "-pprof-out", pprof)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr %q)", code, errb)
	}
	pb, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"casyn_route_nets_total", "casyn_route_congestion_bucket", "casyn_span_seconds_sum"} {
		if !strings.Contains(string(pb), want) {
			t.Errorf("prom dump missing %q", want)
		}
	}
	if _, err := os.Stat(pprof); err != nil {
		t.Errorf("cpu profile not written: %v", err)
	}
}

// TestMetricsOfFailedRunStillFlush checks the failure path: a stage
// that times out must still leave its partial metrics on disk, with
// the error recorded on the span.
func TestMetricsOfFailedRunStillFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	// 1ns budget: prepare cannot finish.
	code, _, _ := runCLI(t, "-pla", add2PLA, "-stage-timeout", "1ns", "-metrics", path)
	if code != exitTimeout {
		t.Fatalf("exit = %d, want %d", code, exitTimeout)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("metrics of failed run not valid JSONL: %v", err)
	}
	found := false
	for _, sp := range snap.Spans {
		if strings.HasPrefix(sp.Name, "stage.") && sp.Err != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no failed stage span recorded: %+v", snap.Spans)
	}
}

// TestUsageErrors pins the usage exit paths.
func TestUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"no input":      {},
		"bad bench":     {"-bench", "nonesuch"},
		"bad partition": {"-pla", add2PLA, "-partition", "nonesuch"},
		"bad flag":      {"-definitely-not-a-flag"},
		"eco with dies": {"-pla", add2PLA, "-eco", "edits.json", "-dies", "2"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if code, _, _ := runCLI(t, args...); code != exitUsage {
				t.Errorf("exit = %d, want %d", code, exitUsage)
			}
		})
	}
	if code, _, _ := runCLI(t, "-pla", add2PLA, "-pprof", "flames"); code != exitErr {
		t.Errorf("invalid -pprof mode: exit != %d", exitErr)
	}
}

// TestVerilogExportUnchangedByMetrics re-checks observability inertness
// at the CLI level: the exported Verilog is byte-identical with and
// without -metrics.
func TestVerilogExportUnchangedByMetrics(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.v")
	instr := filepath.Join(dir, "instr.v")
	if code, _, errb := runCLI(t, "-pla", add2PLA, "-verilog", plain); code != 0 {
		t.Fatalf("plain run failed: %s", errb)
	}
	if code, _, errb := runCLI(t, "-pla", add2PLA, "-verilog", instr,
		"-metrics", filepath.Join(dir, "m.jsonl")); code != 0 {
		t.Fatalf("instrumented run failed: %s", errb)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(instr)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("-metrics changed the exported Verilog")
	}
}

// TestAdaptiveComposes: -adaptive runs with -dies and with -eco. The
// multi-die report, and the base report of the ECO run, are the
// library's for the same options; the ECO chains from the loop's
// accepted state and prints its own report.
func TestAdaptiveComposes(t *testing.T) {
	p, err := bench.Generate(bench.SPLA.ScaledSpec(0.1))
	if err != nil {
		t.Fatal(err)
	}
	report := func(opts casyn.Options) string {
		t.Helper()
		res, err := casyn.Synthesize(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}

	code, out, errb := runCLI(t, "-bench", "spla", "-scale", "0.1", "-die", "11600", "-adaptive", "-dies", "2")
	if code != exitOK {
		t.Fatalf("-adaptive -dies 2: exit %d: %s", code, errb)
	}
	if want := report(casyn.Options{Adaptive: true, Dies: 2, DieArea: 11600}); !strings.HasPrefix(out, want) {
		t.Errorf("-adaptive -dies 2 report differs from the library:\n%s\nwant:\n%s", out, want)
	}

	edits := nudgeEdits(t, p)
	code, out, errb = runCLI(t, "-bench", "spla", "-scale", "0.1", "-die", "12281", "-adaptive", "-eco", edits)
	if code != exitOK {
		t.Fatalf("-adaptive -eco: exit %d: %s", code, errb)
	}
	base, eco, ok := strings.Cut(out, "\n--- after ECO ---\n")
	if !ok || !strings.Contains(eco, "routed wirelength:") {
		t.Fatalf("-adaptive -eco printed no ECO report:\n%s", out)
	}
	if want := report(casyn.Options{Adaptive: true, DieArea: 12281}); base != want {
		t.Errorf("-adaptive -eco base report differs from the library:\n%s\nwant:\n%s", base, want)
	}
}

// nudgeEdits writes an edit-set file that nudges p's first live NAND2
// or inverter gate, and returns its path.
func nudgeEdits(t *testing.T, p *logic.PLA) string {
	t.Helper()
	dag, err := casyn.SubjectFor(context.Background(), p, casyn.Options{})
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
	edits := filepath.Join(t.TempDir(), "edits.json")
	if err := os.WriteFile(edits, []byte(fmt.Sprintf(`{"edits":[{"op":"nudge","gate":%d,"dx":5,"dy":0}]}`, gate)), 0o644); err != nil {
		t.Fatal(err)
	}
	return edits
}

// TestAdaptiveFastECOReroutesIncrementally: -adaptive -eco -eco-fast
// chains from the loop's accepted state, routing state included, so
// the edit reroutes incrementally (nets kept, no full reroute), and the
// output is the same at 1 and 4 workers.
func TestAdaptiveFastECOReroutesIncrementally(t *testing.T) {
	p, err := bench.Generate(bench.SPLA.ScaledSpec(0.1))
	if err != nil {
		t.Fatal(err)
	}
	edits := nudgeEdits(t, p)
	var outs []string
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "metrics.jsonl")
		code, out, errb := runCLI(t, "-bench", "spla", "-scale", "0.1", "-die", "12281", "-adaptive",
			"-eco", edits, "-eco-fast", "-workers", workers, "-metrics", path)
		if code != exitOK {
			t.Fatalf("workers=%s: exit %d: %s", workers, code, errb)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if c := snap.Counters; c["eco.route_nets_kept"] == 0 {
			t.Errorf("workers=%s: route_nets_kept=0, want an incremental reroute", workers)
		}
		// The reports match up to the wall-clock line, which names the
		// worker count.
		report, _, _ := strings.Cut(out, "wall-clock:")
		outs = append(outs, report)
	}
	if outs[0] != outs[1] {
		t.Errorf("reports differ between 1 and 4 workers:\n%s\nvs\n%s", outs[0], outs[1])
	}
}
