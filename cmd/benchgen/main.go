// Command benchgen emits the synthetic benchmark circuits as Berkeley
// PLA files so they can be inspected or fed to other tools, and the
// paper-scale routing benchmarks (placed netlists, 100k–1M gates) as
// plain-text placement+netlist dumps.
//
// Usage:
//
//	benchgen -out ./benchmarks
//	benchgen -bench spla -scale 0.1 -out .
//	benchgen -route 100000 -out ./benchmarks
//	benchgen -route-ladder -out ./benchmarks
//
// Exit codes: 0 success, 1 generation or I/O error, 2 usage.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"

	"casyn/internal/bench"
)

const (
	exitOK    = 0
	exitErr   = 1
	exitUsage = 2
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) { fmt.Fprintf(stderr, "benchgen: "+format+"\n", a...) }
	fs := flag.NewFlagSet("benchgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outDir      = fs.String("out", ".", "output directory")
		benchName   = fs.String("bench", "", "single class to emit (spla, pdc); default: all PLA classes")
		scale       = fs.Float64("scale", 1.0, "benchmark scale factor")
		routeGates  = fs.Int("route", 0, "emit the paper-scale routing benchmark for this gate count instead of PLAs")
		routeLadder = fs.Bool("route-ladder", false, "emit the full routing benchmark ladder (100k, 250k, 1M gates)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fail("unexpected arguments: %v", fs.Args())
		fs.Usage()
		return exitUsage
	}
	if *routeGates != 0 || *routeLadder {
		if *benchName != "" {
			fail("-route/-route-ladder and -bench are mutually exclusive")
			return exitUsage
		}
		specs := bench.PaperRouteSpecs()
		if *routeGates != 0 {
			specs = []bench.RouteSpec{bench.RouteSpecAt(*routeGates)}
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail("%v", err)
			return exitErr
		}
		for _, spec := range specs {
			if err := ctx.Err(); err != nil {
				fail("canceled: %v", err)
				return exitErr
			}
			if err := emitRoute(spec, *outDir, stdout); err != nil {
				fail("%v", err)
				return exitErr
			}
		}
		return exitOK
	}

	classes := []bench.Class{bench.SPLA, bench.PDC}
	if *benchName != "" {
		class, ok := bench.ParseClass(*benchName)
		if !ok || class == bench.TooLarge {
			fail("unknown benchmark %q (want spla or pdc; too_large is a layered netlist, not a PLA)", *benchName)
			return exitUsage
		}
		classes = []bench.Class{class}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail("%v", err)
		return exitErr
	}
	for _, class := range classes {
		if err := ctx.Err(); err != nil {
			fail("canceled: %v", err)
			return exitErr
		}
		spec := class.SpecAt(*scale)
		p, err := bench.Generate(spec)
		if err != nil {
			fail("%v", err)
			return exitErr
		}
		path := filepath.Join(*outDir, spec.Name+".pla")
		f, err := os.Create(path)
		if err != nil {
			fail("%v", err)
			return exitErr
		}
		if err := p.Write(f); err != nil {
			f.Close()
			fail("%v", err)
			return exitErr
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
			return exitErr
		}
		s := p.Stats()
		fmt.Fprintf(stdout, "%s: %d inputs, %d outputs, %d terms, %d literals\n",
			path, s.Inputs, s.Outputs, s.Terms, s.Literals)
	}
	return exitOK
}

// emitRoute generates one paper-scale routing benchmark and writes it
// as a plain-text placed netlist: a header with the die geometry, one
// `cell i x y w` line per placed cell, one `net c1 c2 ...` line per
// hyperedge. The format is deliberately trivial — these dumps exist so
// other routers can be pointed at the exact circuits casynbench's
// route250k workload and the route determinism tests measure.
func emitRoute(spec bench.RouteSpec, outDir string, stdout io.Writer) error {
	nl, pl, layout, err := spec.Generate()
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, spec.Name+".routebench")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# casyn routing benchmark %s (deterministic, seed %#x)\n", spec.Name, spec.Seed)
	fmt.Fprintf(w, "die %g %g %g %g rowheight %g\n",
		layout.Die.Min.X, layout.Die.Min.Y, layout.Die.Max.X, layout.Die.Max.Y, layout.RowHeight)
	fmt.Fprintf(w, "cells %d nets %d\n", len(nl.Widths), len(nl.Nets))
	for i, width := range nl.Widths {
		fmt.Fprintf(w, "cell %d %g %g %g\n", i, pl.Pos[i].X, pl.Pos[i].Y, width)
	}
	for _, n := range nl.Nets {
		w.WriteString("net")
		for _, c := range n.Cells {
			fmt.Fprintf(w, " %d", c)
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d cells, %d nets\n", path, len(nl.Widths), len(nl.Nets))
	return nil
}
