// Command ksweep reproduces the paper's Table 2 (SPLA) and Table 4
// (PDC): the congestion-minimization factor K swept over the paper's
// ladder against a fixed die, reporting cell area, cell count, area
// utilization, and routing violations per K.
//
// Usage:
//
//	ksweep -bench spla          # full-size Table 2 (≈1 min)
//	ksweep -bench pdc           # full-size Table 4
//	ksweep -bench spla -scale 0.1
//
// Exit codes: 0 success, 1 error (including a failed -metrics/-trace
// flush after an otherwise clean sweep), 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"casyn/internal/bench"
	"casyn/internal/cliobs"
	"casyn/internal/experiments"
)

const (
	exitOK    = 0
	exitErr   = 1
	exitUsage = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) { fmt.Fprintf(stderr, "ksweep: "+format+"\n", a...) }
	fs := flag.NewFlagSet("ksweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "spla", "benchmark class: spla or pdc")
		scale     = fs.Float64("scale", 1.0, "benchmark scale factor")
		workers   = fs.Int("workers", 0, "K-sweep goroutines (0 = all CPUs, 1 = serial)")
	)
	ob := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	class, ok := bench.ParseClass(*benchName)
	if !ok || class == bench.TooLarge {
		fail("unknown benchmark %q (want spla or pdc)", *benchName)
		return exitUsage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, finish, oerr := ob.Start(ctx)
	if oerr != nil {
		fail("%v", oerr)
		return exitErr
	}
	start := time.Now()
	res, err := experiments.KSweep(ctx, class, *scale, *workers)
	elapsed := time.Since(start)
	// Flush the observability outputs first — the trace of a failed
	// sweep is often the most useful one — but let the sweep's own
	// failure decide the exit code; a flush failure alone exits 1.
	ferr := finish()
	if ferr != nil {
		fail("%v", ferr)
	}
	if err != nil {
		fail("%v", err)
		return exitErr
	}
	table := "Table 2"
	if class == bench.PDC {
		table = "Table 4"
	}
	fmt.Fprintf(stdout, "%s: %s congestion minimization vs place&route results\n", table, class)
	fmt.Fprintf(stdout, "die %.0f µm², %d rows, 3 metal layers\n\n", res.Layout.Area(), res.Layout.NumRows)
	fmt.Fprintf(stdout, "%-9s %-12s %-9s %-14s %-10s\n", "K", "Cell Area", "No. of", "Area", "Routing")
	fmt.Fprintf(stdout, "%-9s %-12s %-9s %-14s %-10s\n", "", "(µm²)", "Cells", "Utilization%", "violations")
	for _, r := range res.Rows {
		if r.Failed {
			fmt.Fprintf(stdout, "%-9g FAILED: %v\n", r.K, r.Err)
			continue
		}
		fmt.Fprintf(stdout, "%-9g %-12.0f %-9d %-14.2f %-10d\n",
			r.K, r.CellArea, r.NumCells, r.Utilization*100, r.Violations)
	}
	fmt.Fprintf(stdout, "\nsweep wall-clock: %.2fs (workers=%d, %d CPUs)\n",
		elapsed.Seconds(), *workers, runtime.GOMAXPROCS(0))
	if ferr != nil {
		return exitErr
	}
	return exitOK
}
