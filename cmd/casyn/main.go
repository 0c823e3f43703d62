// Command casyn runs the congestion-aware synthesis flow end to end on
// a PLA file or a built-in benchmark class and prints the paper-style
// report: cell area, utilization, routing violations, and timing.
//
// Usage:
//
//	casyn -pla design.pla -k 0.001 -timing
//	casyn -bench spla -scale 0.1 -k 0.0005
//	casyn -bench too_large -sis
//	casyn -bench spla -timeout 2m -stage-timeout 30s
//	casyn -pla design.pla -metrics run.jsonl -trace -pprof cpu
//	casyn -bench spla -scale 0.05 -k 0.5 -eco edits.json -eco-fast
//	casyn -bench spla -scale 0.05 -adaptive -eco edits.json
//	casyn -bench spla -scale 0.05 -dies 4 -adaptive
//
// Exit codes identify the failure: 0 success, 1 generic error, 2 usage,
// 3 map stage, 4 place stage, 5 route stage, 6 sta stage, 7 timeout or
// cancellation (SIGINT). Stage failures print the stage and K value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/cliobs"
	"casyn/internal/flow"
	"casyn/internal/logic"
	"casyn/internal/mapper"
	"casyn/internal/partition"
	"casyn/internal/runstage"
)

// Exit codes; the stage codes follow the pipeline order.
const (
	exitOK      = 0
	exitErr     = 1
	exitUsage   = 2
	exitMap     = 3
	exitPlace   = 4
	exitRoute   = 5
	exitSTA     = 6
	exitTimeout = 7
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) { fmt.Fprintf(stderr, "casyn: "+format+"\n", a...) }
	fs := flag.NewFlagSet("casyn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		plaPath   = fs.String("pla", "", "Berkeley PLA file to synthesize")
		benchName = fs.String("bench", "", "built-in benchmark class: spla, pdc, too_large")
		scale     = fs.Float64("scale", 1.0, "benchmark scale factor (1.0 = full size)")
		k         = fs.Float64("k", 0, "congestion minimization factor K (Eq. 5)")
		adaptive  = fs.Bool("adaptive", false, "closed-loop congestion control: steer a spatial K-field from the routed congestion map instead of fixing K (-k then sets the baseline; 0 = calibrated default)")
		dies      = fs.Int("dies", 0, "multi-die synthesis: tile the die into N regions, partition directly k-way with cut-driver replication, enforce the inter-die pin budget at routing (0/1 = single die)")
		pinBudget = fs.Int("die-pins", 0, "with -dies: inter-die pin budget on region-crossing nets (0 = derive from boundary capacity, negative = unchecked)")
		dieArea   = fs.Float64("die", 0, "die area in µm² (0 = auto-size at 58% utilization)")
		sis       = fs.Bool("sis", false, "run SIS-style technology-independent optimization first")
		timing    = fs.Bool("timing", false, "run static timing analysis")
		method    = fs.String("partition", "pdp", "DAG partitioning: pdp, dagon, cone")
		seed      = fs.Int64("seed", 1, "placement seed")
		verilog   = fs.String("verilog", "", "write the mapped netlist as structural Verilog to FILE")
		cellRep   = fs.Bool("cells", false, "print the per-cell usage report")
		timeout   = fs.Duration("timeout", 0, "overall wall-clock budget for the run (0 = none)")
		stageTO   = fs.Duration("stage-timeout", 0, "wall-clock budget per pipeline stage (0 = none)")
		workers   = fs.Int("workers", 0, "covering/routing goroutines (0 = all CPUs, 1 = serial)")
		ecoPath   = fs.String("eco", "", "after the base synthesis, apply the ECO edit-set JSON FILE incrementally and print both reports")
		ecoFast   = fs.Bool("eco-fast", false, "with -eco: incremental placement and edit-scoped reroute instead of the byte-identical full place/route")
	)
	ob := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	opts := casyn.Options{
		K:                       *k,
		Adaptive:                *adaptive,
		Dies:                    *dies,
		InterDiePinBudget:       *pinBudget,
		DieArea:                 *dieArea,
		OptimizeTechIndependent: *sis,
		RunTiming:               *timing,
		Seed:                    *seed,
		StageTimeout:            *stageTO,
		Workers:                 *workers,
	}
	var ok bool
	if opts.Partition, ok = partition.ParseMethod(*method); !ok {
		fail("unknown partition method %q", *method)
		return exitUsage
	}
	if *dies > 1 && *ecoPath != "" {
		fail("-eco and -dies are mutually exclusive (the ECO chain is single-die)")
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, finish, oerr := ob.Start(ctx)
	if oerr != nil {
		fail("%v", oerr)
		return exitErr
	}

	var p *logic.PLA
	switch {
	case *plaPath != "":
		var rerr error
		p, rerr = casyn.ReadPLAFile(*plaPath)
		if rerr != nil {
			fail("%v", rerr)
			finish()
			return exitErr
		}
	case *benchName != "":
		class, ok := bench.ParseClass(*benchName)
		if !ok {
			fail("unknown benchmark %q (want spla, pdc, too_large)", *benchName)
			finish()
			return exitUsage
		}
		spec := class.Spec()
		if *scale != 1.0 {
			spec = class.ScaledSpec(*scale)
		}
		var gerr error
		p, gerr = bench.Generate(spec)
		if gerr != nil {
			fail("%v", gerr)
			finish()
			return exitErr
		}
	default:
		fail("need -pla FILE or -bench NAME")
		fs.Usage()
		finish()
		return exitUsage
	}
	var res, ecoRes *casyn.Result
	var err error
	start := time.Now()
	if *ecoPath != "" {
		res, ecoRes, err = runECO(ctx, p, *ecoPath, *ecoFast, opts)
	} else {
		res, err = casyn.SynthesizeContext(ctx, p, opts)
	}
	elapsed := time.Since(start)
	// The trace of a failed run is often the most useful one: flush the
	// observability outputs before mapping the failure to an exit code.
	ferr := finish()
	if ferr != nil {
		fail("%v", ferr)
	}
	if err != nil {
		return reportFailure(fail, err)
	}
	if ferr != nil {
		return exitErr
	}
	fmt.Fprint(stdout, res.Report())
	if ecoRes != nil {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "--- after ECO ---")
		fmt.Fprint(stdout, ecoRes.Report())
		// The artifact outputs below describe the edited design.
		res = ecoRes
	}
	fmt.Fprintf(stdout, "wall-clock:        %.2fs (workers=%d, %d CPUs)\n",
		elapsed.Seconds(), *workers, runtime.GOMAXPROCS(0))
	if *cellRep {
		fmt.Fprintln(stdout)
		if err := res.Mapped.WriteCellReport(stdout); err != nil {
			fail("%v", err)
			return exitErr
		}
	}
	if *verilog != "" {
		f, err := os.Create(*verilog)
		if err != nil {
			fail("%v", err)
			return exitErr
		}
		if err := res.Mapped.WriteVerilog(f, "casyn_top"); err != nil {
			f.Close()
			fail("%v", err)
			return exitErr
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
			return exitErr
		}
		fmt.Fprintf(stdout, "wrote %s\n", *verilog)
	}
	return exitOK
}

// reportFailure prints the failure — naming the pipeline stage and K
// when known — and maps it to the documented exit code. Timeouts and
// cancellations take precedence over the stage code so scripts can
// distinguish "ran out of budget" from "this stage is broken".
func reportFailure(fail func(string, ...any), err error) int {
	se := runstage.AsStage(err)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		if se != nil {
			fail("timed out in %s stage (K=%g): %v", se.Stage, se.K, se.Err)
		} else {
			fail("timed out: %v", err)
		}
		return exitTimeout
	case errors.Is(err, context.Canceled):
		if se != nil {
			fail("canceled in %s stage (K=%g): %v", se.Stage, se.K, se.Err)
		} else {
			fail("canceled: %v", err)
		}
		return exitTimeout
	case se != nil:
		fail("%s stage failed (K=%g): %v", se.Stage, se.K, se.Err)
		switch se.Stage {
		case runstage.StageMap, runstage.StageECO:
			return exitMap
		case runstage.StagePlace, runstage.StagePrepare:
			return exitPlace
		case runstage.StageRoute:
			return exitRoute
		case runstage.StageSTA:
			return exitSTA
		}
		return exitErr
	default:
		fail("%v", err)
		return exitErr
	}
}

// runECO synthesizes the base design statefully — at K, or with
// opts.Adaptive by the closed loop, whose accepted iteration's state
// carries its K-field — then applies the edit-set file incrementally
// (flow.RunECO): only the partition trees and covering regions the
// edits dirtied are recomputed and — with fast set — only the cells
// and nets the edits changed are re-placed and rerouted. Returns the
// base and post-ECO results.
func runECO(ctx context.Context, p *logic.PLA, path string, fast bool, opts casyn.Options) (*casyn.Result, *casyn.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	edits, err := mapper.ParseEditSet(data)
	if err != nil {
		return nil, nil, err
	}
	dag, err := casyn.SubjectFor(ctx, p, opts)
	if err != nil {
		return nil, nil, err
	}
	layout, err := casyn.LayoutFor(dag, opts)
	if err != nil {
		return nil, nil, err
	}
	cfg := casyn.FlowConfig(layout, opts)
	cfg.FastECORoute = fast
	pc, err := flow.Prepare(ctx, dag, cfg)
	if err != nil {
		return nil, nil, err
	}
	var base *casyn.Result
	var st *flow.ECOState
	if opts.Adaptive {
		ares, err := flow.RunAdaptive(ctx, pc, cfg, flow.AdaptiveConfig{BaseK: opts.K})
		if err != nil {
			return nil, nil, err
		}
		base, st = casyn.ResultFrom(dag, layout, pc, ares.Best()), ares.State
		base.AdaptiveIterations = ares.RoutedIterations()
	} else {
		it, stK, err := flow.RunStateful(ctx, pc, opts.K, cfg)
		if err != nil {
			return nil, nil, err
		}
		base, st = casyn.ResultFrom(dag, layout, pc, &it), stK
	}
	eit, _, err := flow.RunECO(ctx, pc, st, edits, cfg)
	if err != nil {
		return base, nil, err
	}
	return base, casyn.ResultFrom(dag, layout, pc, &eit), nil
}
