// Command timing reproduces the paper's Table 3 (SPLA) and Table 5
// (PDC): static timing analysis of the K=0 mapping, a routable mid-K
// mapping, and the SIS baseline, each routed in the smallest die that
// accepts it. A variant that routes in no die within the row budget is
// printed at the largest die tried, with "no" in the Routed column.
//
// Usage:
//
//	timing -bench spla           # full-size Table 3 (a few minutes)
//	timing -bench pdc -midk 0.001
//
// Exit codes: 0 success, 1 error (including a failed -metrics/-trace
// flush after an otherwise clean run), 2 usage.
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
	fail := func(format string, a ...any) { fmt.Fprintf(stderr, "timing: "+format+"\n", a...) }
	fs := flag.NewFlagSet("timing", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "spla", "benchmark class: spla or pdc")
		scale     = fs.Float64("scale", 1.0, "benchmark scale factor")
		midK      = fs.Float64("midk", 0.001, "mid-ladder K for the congestion-aware row")
		workers   = fs.Int("workers", 0, "covering/routing goroutines (0 = all CPUs, 1 = serial)")
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
	rows, err := experiments.STATable(ctx, class, *scale, *midK, *workers)
	elapsed := time.Since(start)
	// Flush the observability outputs first, but let the pipeline's own
	// failure decide the exit code; a flush failure alone exits 1.
	ferr := finish()
	if ferr != nil {
		fail("%v", ferr)
	}
	if err != nil {
		fail("%v", err)
		return exitErr
	}
	table := "Table 3"
	if class == bench.PDC {
		table = "Table 5"
	}
	fmt.Fprintf(stdout, "%s: %s static timing analysis results\n\n", table, class)
	writeRows(stdout, rows)
	fmt.Fprintf(stdout, "\ntable wall-clock: %.2fs (workers=%d, %d CPUs)\n",
		elapsed.Seconds(), *workers, runtime.GOMAXPROCS(0))
	if ferr != nil {
		return exitErr
	}
	return exitOK
}

// writeRows prints the table body. The Routed column says whether the
// row's die routed cleanly; "no" marks a variant that exhausted the
// row budget, so its die is not a minimal routable one.
func writeRows(w io.Writer, rows []experiments.STARow) {
	fmt.Fprintf(w, "%-9s %-34s %-22s %-18s  %s\n", "K", "Critical Path Arrival Time", "Same path as K=0", "Chip Area / rows", "Routed")
	for _, r := range rows {
		routed := "yes"
		if !r.Routable {
			routed = "no"
		}
		fmt.Fprintf(w, "%-9s %s(in) %s(out)  %6.2f ns   %14.2f ns   %10.0f µm² / %d  %s\n",
			r.Label, r.CriticalPI, r.CriticalPO, r.Arrival, r.SameK0PathArrival, r.ChipArea, r.NumRows, routed)
	}
}
