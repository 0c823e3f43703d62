// Package paper prints the paper's evaluation: Tables 2, 4, 1, 3 and
// 5, then the Figure 1 and Figure 3 experiments, in EXPERIMENTS.md's
// order. Each block on stdout is the exact text EXPERIMENTS.md embeds,
// and a test of cmd/paper fails when the two differ; what varies
// between runs (wall clock, CPU count) goes to stderr.
//
// cmd/paper prints every block. cmd/ksweep (Tables 2 and 4),
// cmd/table1 (Table 1) and cmd/timing (Tables 3 and 5) print a subset
// of them with the same flags.
package paper

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"time"

	"casyn/internal/bench"
	"casyn/internal/cliobs"
	"casyn/internal/experiments"
	"casyn/internal/flow"
)

const (
	exitOK    = 0
	exitErr   = 1
	exitUsage = 2
)

// Figure 3 runs the K loop on a half-scale SPLA-class circuit in a die
// tightened by 17%, so the early iterations are congested and the loop
// has something to do.
const (
	figure3Scale   = 0.5
	figure3Tighten = 1.17
)

// block prints one measured block of EXPERIMENTS.md.
type block struct {
	name  string
	write func(ctx context.Context, w io.Writer, scale float64, workers int) error
}

var blocks = []block{
	{"Table 2", func(ctx context.Context, w io.Writer, scale float64, workers int) error {
		return writeKSweep(ctx, w, "Table 2", bench.SPLA, scale, workers)
	}},
	{"Table 4", func(ctx context.Context, w io.Writer, scale float64, workers int) error {
		return writeKSweep(ctx, w, "Table 4", bench.PDC, scale, workers)
	}},
	{"Table 1", func(ctx context.Context, w io.Writer, scale float64, _ int) error {
		return writeTable1(ctx, w, scale)
	}},
	{"Table 3", func(ctx context.Context, w io.Writer, scale float64, workers int) error {
		return writeSTA(ctx, w, "Table 3", bench.SPLA, scale, workers)
	}},
	{"Table 5", func(ctx context.Context, w io.Writer, scale float64, workers int) error {
		return writeSTA(ctx, w, "Table 5", bench.PDC, scale, workers)
	}},
	{"Figure 1", func(_ context.Context, w io.Writer, _ float64, _ int) error {
		return writeFigure1(w)
	}},
	{"Figure 3", func(ctx context.Context, w io.Writer, scale float64, _ int) error {
		return writeFigure3(ctx, w, scale*figure3Scale)
	}},
}

// Run is the main of the command prog, which prints the named blocks
// (every block when names is empty) in EXPERIMENTS.md's order.
// It returns the exit code: 0 success, 1 error (including a failed
// -metrics/-trace flush after an otherwise clean run), 2 usage.
func Run(prog string, names []string, args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) { fmt.Fprintf(stderr, prog+": "+format+"\n", a...) }
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.Float64("scale", 1.0, "benchmark scale factor (Figure 3 runs at half of it)")
		workers = fs.Int("workers", 0, "goroutines for the K sweeps and the timing tables (0 = all CPUs, 1 = serial); the output is the same for every value")
	)
	ob := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 || *scale <= 0 {
		fail("usage: %s [-scale s>0] [-workers n] [observability flags]", prog)
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
	var err error
	for i, b := range selectBlocks(names) {
		t0 := time.Now()
		var buf bytes.Buffer
		if err = b.write(ctx, &buf, *scale, *workers); err != nil {
			err = fmt.Errorf("%s: %w", b.name, err)
			break
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		stdout.Write(buf.Bytes())
		fmt.Fprintf(stderr, "%s: %s %.2fs\n", prog, b.name, time.Since(t0).Seconds())
	}
	fmt.Fprintf(stderr, "%s: wall-clock %.2fs (workers=%d, %d CPUs)\n",
		prog, time.Since(start).Seconds(), *workers, runtime.GOMAXPROCS(0))
	// Flush the observability outputs first — the trace of a failed
	// run is often the most useful one — but let the run's own failure
	// decide the exit code; a flush failure alone exits 1.
	ferr := finish()
	if ferr != nil {
		fail("%v", ferr)
	}
	if err != nil {
		fail("%v", err)
		return exitErr
	}
	if ferr != nil {
		return exitErr
	}
	return exitOK
}

// selectBlocks returns the named blocks in print order, or every block
// when names is empty.
func selectBlocks(names []string) []block {
	if len(names) == 0 {
		return blocks
	}
	var sel []block
	for _, b := range blocks {
		if slices.Contains(names, b.name) {
			sel = append(sel, b)
		}
	}
	return sel
}

// writeKSweep prints Table 2 (SPLA) or Table 4 (PDC): the K ladder
// against the fixed die.
func writeKSweep(ctx context.Context, w io.Writer, title string, class bench.Class, scale float64, workers int) error {
	its, layout, err := experiments.KSweep(ctx, class, scale, workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s congestion minimization vs place&route results\n", title, class)
	fmt.Fprintf(w, "die %.0f µm², %d rows, 3 metal layers\n\n", layout.Area(), layout.NumRows)
	fmt.Fprintf(w, "%-9s %-12s %-9s %-14s %s\n", "K", "Cell Area", "No. of", "Area", "Routing")
	fmt.Fprintf(w, "%-9s %-12s %-9s %-14s %s\n", "", "(µm²)", "Cells", "Utilization%", "violations")
	for _, it := range its {
		if it.Err != nil {
			fmt.Fprintf(w, "%-9g FAILED: %v\n", it.K, it.Err)
			continue
		}
		fmt.Fprintf(w, "%-9g %-12.0f %-9d %-14.2f %d\n",
			it.K, it.CellArea, it.NumCells, it.Utilization*100, it.FailedConnections)
	}
	return nil
}

// writeTable1 prints Table 1: SIS against DAGON in one fixed die.
func writeTable1(ctx context.Context, w io.Writer, scale float64) error {
	sis, dagon, layout, err := experiments.Table1(ctx, scale)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1: TOO_LARGE routing results")
	fmt.Fprintf(w, "die %.0f µm², %d rows, 3 metal layers\n\n", layout.Area(), layout.NumRows)
	fmt.Fprintf(w, "%-7s %-12s %-14s %s\n", "", "Cell Area", "Area", "Routing")
	fmt.Fprintf(w, "%-7s %-12s %-14s %s\n", "", "(µm²)", "Utilization%", "violations")
	for _, r := range []struct {
		label string
		it    flow.Iteration
	}{{"SIS", sis}, {"DAGON", dagon}} {
		fmt.Fprintf(w, "%-7s %-12.0f %-14.2f %d\n", r.label, r.it.CellArea, r.it.Utilization*100, r.it.FailedConnections)
	}
	return nil
}

// writeSTA prints Table 3 (SPLA) or Table 5 (PDC).
func writeSTA(ctx context.Context, w io.Writer, title string, class bench.Class, scale float64, workers int) error {
	rows, err := experiments.STATable(ctx, class, scale, workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s static timing analysis results\n\n", title, class)
	writeSTARows(w, rows)
	return nil
}

// writeSTARows prints the timing table body. The Routed column says
// whether the row's die routed cleanly; "no" marks a variant that
// exhausted the row budget, so its die is not a minimal routable one.
func writeSTARows(w io.Writer, rows []experiments.STARow) {
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

// writeFigure1 prints the motivating example's two mappings.
func writeFigure1(w io.Writer) error {
	minArea, congestion, err := experiments.Figure1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1: minimum area vs congestion mapping")
	for _, m := range []experiments.Figure1Mapping{minArea, congestion} {
		fmt.Fprintf(w, "\n%s mapping:\n", m.Label)
		fmt.Fprintf(w, "  cells:      %v\n", m.Cells)
		fmt.Fprintf(w, "  cell area:  %.3f µm²\n", m.CellArea)
		fmt.Fprintf(w, "  fanin wire: %.1f µm\n", m.Wire)
	}
	fmt.Fprintf(w, "\nthe congestion mapping pays %.1f µm² of cell area to cut\n",
		congestion.CellArea-minArea.CellArea)
	fmt.Fprintf(w, "the interconnection length by %.1f µm (%.0f%%)\n",
		minArea.Wire-congestion.Wire, (1-congestion.Wire/minArea.Wire)*100)
	return nil
}

// writeFigure3 prints the modified design flow's loop: mapping re-run
// with increasing K until the design routes in the tightened die.
func writeFigure3(ctx context.Context, w io.Writer, scale float64) error {
	res, err := experiments.Figure3(ctx, bench.SPLA, scale, figure3Tighten)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3: modified ASIC design flow")
	fmt.Fprintln(w, "(mapping re-run with increasing K until the congestion map is clean)")
	fmt.Fprintf(w, "\n%-9s %-10s %-13s %-11s %s\n", "K", "cells", "utilization", "violations", "decision")
	for _, it := range res.Iterations {
		decision := "congestion NOT OK -> increase K"
		if it.Routable {
			decision = "congestion OK -> place & route"
		}
		fmt.Fprintf(w, "%-9g %-10d %-13.2f %-11d %s\n",
			it.K, it.NumCells, it.Utilization*100, it.FailedConnections, decision)
	}
	if res.Routable {
		fmt.Fprintf(w, "\naccepted mapping: K = %g\n", res.AcceptedK)
	} else {
		fmt.Fprintln(w, "\nno routable mapping found: relax the floorplan or resynthesize")
	}
	return nil
}
