// Command casynbench is the repository's performance benchmark: four
// workloads at paper scale, each run by one closed-loop client with
// two workers, with every output checked for correctness.
//
// Usage:
//
//	casynbench -workload oneshot|drivers|eco|route250k [-seed N] [-seconds S] [-trace 0|1]
//	casynbench [-runs R] [-seed N] [-seconds S] [-trace 0|1] [-out ledger.json]
//	casynbench -compare [-spec BENCHMARK.json] a.json b.json
//
// With -workload it runs that workload in this process and prints an
// environment line, then one JSON result line: the end-to-end metrics,
// or with -trace 1 the per-layer metrics. Without -workload it runs
// every workload R times, each in its own process with seeds N..N+R-1,
// prints the median of every metric and writes the runs to -out.
// -compare prints, for every end-to-end metric of every workload in two
// such ledgers, both medians and quartiles, the bound from the spec and
// a verdict. Seed 0 selects the calibrated inputs; N offsets every
// generator seed. The exit code is 1 when an output is wrong, 2 on a
// usage error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// env is the environment header of a run.
type env struct {
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"vcs_revision"`
	Workload   string         `json:"workload,omitempty"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Workers    int            `json:"workers"`
	Samples    map[string]int `json:"samples,omitempty"`
}

func newEnv(workload string, seed int64, seconds float64, trace bool) env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Workers: workers,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Revision = s.Value
			}
		}
	}
	return e
}

// run is one workload run in a ledger.
type run struct {
	Env    env    `json:"env"`
	Report report `json:"report"`
}

// ledger is what -out writes and -compare reads.
type ledger struct {
	Env  env              `json:"env"`
	Runs map[string][]run `json:"runs"`
}

func main() {
	os.Exit(cli(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func cli(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("casynbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process: oneshot, drivers, eco or route250k")
	seed := fs.Int64("seed", 0, "input seed offset (0 = the calibrated inputs)")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 1, "runs per workload when no -workload is given")
	out := fs.String("out", "", "ledger file to write when no -workload is given")
	compare := fs.Bool("compare", false, "compare the two ledgers given as arguments")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the metric bounds (-compare)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "casynbench: -compare needs two ledger files")
			return 2
		}
		if err := compareLedgers(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "casynbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *runs < 1 {
		fmt.Fprintln(stderr, "casynbench: bad arguments; -trace takes 0 or 1")
		return 2
	}
	if *name == "" {
		return runAll(ctx, stdout, stderr, *seed, *seconds, *trace, *runs, *out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "casynbench: unknown workload %q\n", *name)
		return 2
	}
	o, err := measure(ctx, config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, size: paperSize})
	if err != nil {
		fmt.Fprintf(stderr, "casynbench: %s: %v\n", w.name, err)
		return 1
	}
	e := newEnv(w.name, *seed, *seconds, *trace == 1)
	e.Samples = o.samples
	for _, msg := range o.errors {
		fmt.Fprintln(stderr, "casynbench: wrong output:", msg)
	}
	hdr, err := json.Marshal(e)
	if err != nil {
		fmt.Fprintln(stderr, "casynbench:", err)
		return 1
	}
	res, err := json.Marshal(o.report)
	if err != nil {
		fmt.Fprintln(stderr, "casynbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "env %s\n%s\n", hdr, res)
	if !o.report.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process of this executable and
// prints the median of each metric over the runs.
func runAll(ctx context.Context, stdout, stderr io.Writer, seed int64, seconds float64, trace, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "casynbench:", err)
		return 1
	}
	l := ledger{Env: newEnv("", seed, seconds, trace == 1), Runs: map[string][]run{}}
	code := 0
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			var buf bytes.Buffer
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = &buf, stderr
			err := cmd.Run()
			r, perr := parseRun(buf.Bytes())
			if perr != nil {
				fmt.Fprintf(stderr, "casynbench: %s run %d: %v (%v)\n", w.name, i, perr, err)
				code = 1
				continue
			}
			if err != nil || !r.Report.Correct {
				code = 1
			}
			l.Runs[w.name] = append(l.Runs[w.name], r)
		}
	}
	printMedians(stdout, l)
	if out != "" {
		data, err := json.MarshalIndent(l, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "casynbench:", err)
			return 1
		}
	}
	return code
}

// parseRun reads a run's environment line and its last line, the
// result.
func parseRun(stdout []byte) (run, error) {
	var r run
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if h, ok := strings.CutPrefix(line, "env "); ok {
			if err := json.Unmarshal([]byte(h), &r.Env); err != nil {
				return r, fmt.Errorf("environment line: %w", err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if last == "" {
		return r, errors.New("no result line")
	}
	if err := json.Unmarshal([]byte(last), &r.Report); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

func printMedians(w io.Writer, l ledger) {
	fmt.Fprintf(w, "%-10s %-34s %16s  %s\n", "workload", "metric", "median", "unit")
	for _, wl := range workloads {
		rs := l.Runs[wl.name]
		if len(rs) == 0 {
			continue
		}
		names := make([]string, 0, len(rs[0].Report.Metrics))
		for n := range rs[0].Report.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-10s %-34s %16.6g  %s\n", wl.name, n, quantile(values(rs, n), 0.5), rs[0].Report.Metrics[n].Unit)
		}
		failed, attempted := 0, 0
		for _, r := range rs {
			failed += r.Report.Failed
			attempted += r.Report.Attempted
		}
		fmt.Fprintf(w, "%-10s %-34s %16d  of %d attempted\n", wl.name, "failed", failed, attempted)
	}
}

// values is one metric across runs.
func values(rs []run, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Report.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}
