// Package cliobs wires the observability flags shared by the casyn
// command-line tools: -metrics (JSONL event stream), -trace (span tree
// to stderr), -prom (Prometheus-style text dump), and -pprof /
// -pprof-out (runtime profiles). Each CLI registers the flags before
// flag.Parse, then brackets its run between Start and the returned
// finish function:
//
//	ob := cliobs.Register()
//	flag.Parse()
//	ctx, finish, err := ob.Start(ctx)
//	// ... run the flow with ctx ...
//	err = finish() // writes every requested output
//
// finish must be called even when the run fails so the partial trace
// of a failed run still lands on disk.
package cliobs

import (
	"context"
	"flag"
	"io"
	"os"

	"casyn/internal/obs"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	// Metrics is the JSONL output path; "-" writes to stdout.
	Metrics string
	// Trace prints the span tree to stderr when the run ends.
	Trace bool
	// Prom is the Prometheus-style text dump path; "-" writes to stdout.
	Prom string
	// Pprof selects a runtime profile: "", "cpu", "heap", or "mutex".
	Pprof string
	// PprofOut is the profile output path (default "<mode>.pprof").
	PprofOut string
}

// Register declares the observability flags on fs (nil = the process
// flag set) and returns the destination they parse into.
func Register(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "write metrics and span events as JSONL to `FILE` (\"-\" = stdout)")
	fs.BoolVar(&f.Trace, "trace", false, "print the span tree to stderr when the run ends")
	fs.StringVar(&f.Prom, "prom", "", "write a Prometheus-style text metrics dump to `FILE` (\"-\" = stdout)")
	fs.StringVar(&f.Pprof, "pprof", "", "capture a runtime `profile`: cpu, heap, or mutex")
	fs.StringVar(&f.PprofOut, "pprof-out", "", "profile output `FILE` (default <mode>.pprof)")
	return f
}

// Start attaches an obs.Recorder to ctx when any recording output was
// requested and starts the requested profile. The returned finish
// function stops the profile and writes every requested output; call
// it exactly once. When nothing was requested it returns ctx unchanged
// and a no-op finish, so callers need no conditional.
func (f *Flags) Start(ctx context.Context) (context.Context, func() error, error) {
	var rec *obs.Recorder
	if f.Metrics != "" || f.Trace || f.Prom != "" {
		rec = obs.New()
		ctx = obs.WithRecorder(ctx, rec)
	}
	stopProf := func() error { return nil }
	if f.Pprof != "" {
		out := f.PprofOut
		if out == "" {
			out = f.Pprof + ".pprof"
		}
		var err error
		stopProf, err = obs.StartProfile(f.Pprof, out)
		if err != nil {
			return ctx, func() error { return nil }, err
		}
	}
	finish := func() error {
		var firstErr error
		keep := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		keep(stopProf())
		if rec == nil {
			return firstErr
		}
		snap := rec.Snapshot()
		if f.Metrics != "" {
			keep(writeTo(f.Metrics, func(w io.Writer) error { return obs.WriteJSONL(w, snap) }))
		}
		if f.Prom != "" {
			keep(writeTo(f.Prom, func(w io.Writer) error { return obs.WriteProm(w, snap) }))
		}
		if f.Trace {
			keep(obs.WriteSpanTree(os.Stderr, snap))
		}
		return firstErr
	}
	return ctx, finish, nil
}

// writeTo streams write into path, with "-" meaning stdout.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
