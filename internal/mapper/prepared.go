package mapper

// This file implements the shared K-sweep prefix: only the covering
// DP's cost (Eqs. 1–5) depends on the congestion factor K — the
// partition forest, the per-tree topological orders, and the complete
// per-vertex match enumeration with pattern/leaf bindings and cached
// geometry are all functions of (DAG, placement, partition method,
// library) alone. Prepared computes that prefix once; MapPrepared
// replays only the K-dependent covering and reconstruction against
// it, which is what makes a K ladder sweep cheap.

import (
	"context"
	"fmt"

	"casyn/internal/cover"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/obs"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// Prepared is the K-invariant prefix of mapping one placed subject
// DAG: the partition forest plus the covering prefix (trees, match
// enumeration, cached centers of mass and cross-leaf distances). It is
// immutable after Prepare and safe to share across goroutines — a
// concurrent K ladder maps every rung against one Prepared.
//
// A Prepared is valid for exactly the (DAG, placement, Method, Lib) it
// was built from; remapping after any of those change requires a fresh
// Prepare. Compatible checks the method and
// library content, the only options the prefix depends on, for callers
// that thread a Prepared alongside a config.
type Prepared struct {
	dag    *subject.DAG
	forest *partition.Forest
	prefix *cover.Prefix
	opts   Options
	// in is the placement context the prefix was built against; the
	// incremental path (Invalidate) re-partitions edited clones of it.
	in Input
}

// DAG exposes the subject DAG the prefix was built for (read-only).
func (p *Prepared) DAG() *subject.DAG { return p.dag }

// Pos exposes the placement the prefix was built against (read-only).
// After an Invalidate, the successor Prepared's Pos carries the edited
// positions — downstream placement and routing read them from here.
func (p *Prepared) Pos() []geom.Point { return p.in.Pos }

// POPads exposes the PO pad map of the placement context (read-only).
func (p *Prepared) POPads() map[int][]geom.Point { return p.in.POPads }

// Forest exposes the partition the prefix was built on.
func (p *Prepared) Forest() *partition.Forest { return p.forest }

// NumMatches returns the total cached match count (reporting only).
func (p *Prepared) NumMatches() int { return p.prefix.NumMatches() }

// Compatible reports whether the Prepared can serve a mapping request
// with the given partition method and library. Libraries compare by
// content (library.Library.Fingerprint), so a fresh library.Default()
// serves a prefix prepared with another one.
func (p *Prepared) Compatible(method partition.Method, lib *library.Library) bool {
	return p != nil && lib != nil && p.opts.Method == method &&
		p.opts.Lib.Fingerprint() == lib.Fingerprint()
}

// Prepare runs the K-invariant mapping prefix: partitioning and the
// complete match enumeration. opts.K is ignored — K enters only at
// MapPrepared time. The work is recorded under a "map.prepare" span
// with nested "map.partition"; the cached match total lands on the
// "map.prepare.matches" counter.
func Prepare(ctx context.Context, d *subject.DAG, in Input, opts Options) (*Prepared, error) {
	return prepare(ctx, d, nil, in, opts)
}

// PrepareForest builds the K-invariant prefix over a prebuilt
// partition forest — the direct k-way partitioner's output, possibly
// carrying replica gates — instead of running the partition stage.
// The DAG, placement, and forest must be mutually consistent (the
// k-way result's DAG/Pos/Forest triple is, by construction).
func PrepareForest(ctx context.Context, d *subject.DAG, forest *partition.Forest, in Input, opts Options) (*Prepared, error) {
	if forest == nil {
		return nil, fmt.Errorf("mapper: PrepareForest needs a forest")
	}
	return prepare(ctx, d, forest, in, opts)
}

// prepare builds the prefix under a "map.prepare" span, partitioning
// first when no forest is given.
func prepare(ctx context.Context, d *subject.DAG, forest *partition.Forest, in Input, opts Options) (*Prepared, error) {
	opts.defaults()
	rec := obs.From(ctx)
	pctx, span := rec.StartSpan(ctx, "map.prepare")
	var prefix *cover.Prefix
	var err error
	if forest == nil {
		_, pSpan := rec.StartSpan(pctx, "map.partition")
		forest, err = partition.Partition(partition.Input{
			DAG:    d,
			Pos:    in.Pos,
			POPads: in.POPads,
		}, opts.Method)
		pSpan.End(err)
	}
	if err == nil {
		prefix, err = cover.BuildPrefix(pctx, d, forest, opts.Lib, in.Pos, opts.Workers)
	}
	span.End(err)
	if err != nil {
		return nil, err
	}
	rec.Add("map.prepare.matches", int64(prefix.NumMatches()))
	return &Prepared{dag: d, forest: forest, prefix: prefix, opts: opts, in: in}, nil
}

// MapPrepared maps the prepared DAG at one congestion factor K: it is
// MapStateful without the state. The covering DP consumes the cached
// matches and re-evaluates only the K-weighted cost combination.
func MapPrepared(ctx context.Context, prep *Prepared, k float64) (*Result, error) {
	res, _, err := MapStateful(ctx, prep, k)
	return res, err
}
