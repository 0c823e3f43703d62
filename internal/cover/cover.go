// Package cover implements dynamic-programming tree covering with the
// paper's congestion-aware cost function (Section 3.2, Eqs. 1–5):
//
//	AREA(m,v)  = area(m) + Σ areaCost(v_i)                      (1)
//	WIRE1(m,v) = Σ dist(pos(m,v), pos(match(v_i), v_i))         (2)
//	WIRE2(m,v) = Σ wireCost(v_i)                                (3)
//	WIRE(m,v)  = WIRE1(m,v) + WIRE2(m,v)                        (4)
//	COST(m,v)  = AREA(m,v) + K · WIRE(m,v)                      (5)
//
// pos(m,v) is the center of mass, on the chip layout image, of the
// base gates covered by match m; when a match is selected the covered
// gates' positions are replaced by that center of mass, which is how
// the companion placement is incrementally updated. wireCost(v) is the
// WIRE1 of the match selected at v — the wire contribution between
// that match and its fanins — so WIRE totals the match's own fanin
// wires plus those of its immediate children, exactly the two-level
// scope the paper argues for (against the transitive-fanin cost of
// Pedram–Bhat [9], available here as an ablation option).
//
// K = 0 reduces COST to the classic minimum-area objective of DAGON.
//
// # Parallelism
//
// The trees of the partition forest are independent dynamic programs:
// they share only the read-only DAG, library, and the pre-cover
// placement snapshot. Every cross-tree distance (a match leaf that
// references a gate of another tree) is evaluated against that frozen
// snapshot, never against another tree's committed center-of-mass
// updates, so the cover of each tree is independent of tree processing
// order and Cover's result is byte-identical for any Options.Workers
// value. The incremental placement update remains visible where it
// matters: within a tree, parent matches see their input subtrees'
// centers of mass through the DP solutions, and Result.Pos carries
// every tree's committed positions for downstream consumers.
package cover

import (
	"context"
	"fmt"

	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/match"
	"casyn/internal/obs"
	"casyn/internal/par"
	"casyn/internal/partition"
	"casyn/internal/subject"
)

// matchesPerGateBounds buckets how many library patterns matched at
// each DP vertex — the solution-space width the covering explores.
var matchesPerGateBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// instruments carries the shared observability handles of one Cover
// call. Counter and histogram handles are safe to share across the
// tree fan-out (atomic / mutex-guarded), and the zero value (nil
// handles, from a context without a recorder) is a complete no-op.
type instruments struct {
	solutions *obs.Counter   // DP vertices solved ("cover.solutions")
	matches   *obs.Counter   // candidate matches evaluated ("cover.matches")
	perGate   *obs.Histogram // matches per vertex ("cover.matches_per_gate")
}

// Options tunes the coverer.
type Options struct {
	// K is the congestion minimization factor of Eq. 5.
	K float64
	// TransitiveWire switches WIRE2 to the full transitive
	// accumulation (the Pedram–Bhat-style cost the paper criticizes);
	// used by the ablation benchmarks.
	TransitiveWire bool
	// NoWire2 drops WIRE2 entirely (WIRE = WIRE1), the other ablation.
	NoWire2 bool
	// KField spatially weights Eq. 5: each wire term is scaled by the
	// field multiplier sampled along its span (see kfield.go) before K
	// is applied. Nil is the uniform field (every multiplier exactly
	// 1.0), under which the cost is the classic global-K one. The
	// reported WIRE
	// metrics (Solution.Wire, Result.RootWire) stay unweighted — the
	// field shifts the optimization, not the measurement.
	KField *KField
	// Workers bounds the goroutines covering trees concurrently:
	// 0 = runtime.GOMAXPROCS, 1 = serial. The result is identical for
	// every value (see the package comment on parallelism).
	Workers int
}

// wireUnit is the length unit, in µm, that WIRE is expressed in: one
// routing half-pitch. It calibrates the K scale so the paper's K
// ladder lands on the same regions. Distances are rectilinear
// (geom.Point.Manhattan).
const wireUnit = 0.5

// Solution is the optimal cover decision at one tree vertex.
type Solution struct {
	Match match.Match
	// AreaCost is Eq. 1 evaluated for the selected match.
	AreaCost float64
	// WireCost is the stored wireCost(v): WIRE1 of the selected match
	// (or the transitive accumulation under Options.TransitiveWire).
	WireCost float64
	// WireCostW is the K-field-weighted analogue of WireCost: each
	// span's contribution scaled by the field multiplier. It is what a
	// parent's WIRE2 accumulates under a field. Equal to WireCost under
	// the uniform field.
	WireCostW float64
	// Wire is Eq. 4 for the selected match (reporting only).
	Wire float64
	// Pos is the selected match's center of mass.
	Pos geom.Point
}

// Result is the cover of the whole forest.
type Result struct {
	// Best holds the DP solution for every tree vertex, indexed by gate
	// ID (nil for PIs, constants, and dead gates); reconstruction reads
	// non-root entries when logic duplication is needed.
	Best []*Solution
	// Pos is the updated companion placement: covered gates moved to
	// their selected match's center of mass.
	Pos []geom.Point
	// RootArea sums Eq. 1 over tree roots: the cell area of the cover
	// before duplication.
	RootArea float64
	// RootWire sums Eq. 4 over tree roots.
	RootWire float64
}

// Cover runs the DP over every tree of the forest. pos gives the
// initial placement of all subject gates and is not modified; the
// updated positions are in Result.Pos. Trees fan out across
// opts.Workers goroutines — they share only read-only state, each tree
// writes its own disjoint Best/Pos entries, and the root reduction
// runs in ascending root order, so the result is deterministic and
// identical to the serial pass. Each tree is a cooperative
// cancellation point: a canceled ctx stops the DP promptly with a
// wrapped ctx error.
func Cover(ctx context.Context, dag *subject.DAG, forest *partition.Forest, lib *library.Library, pos []geom.Point, opts Options) (*Result, error) {
	prefix, err := BuildPrefix(ctx, dag, forest, lib, pos, opts.Workers)
	if err != nil {
		return nil, err
	}
	return CoverWithPrefix(ctx, dag, forest, prefix, opts)
}

// CoverWithPrefix runs the K-dependent covering DP against a prefix
// built by BuildPrefix for the same (dag, forest). The prefix is read
// only, so one prefix can serve any number of concurrent
// CoverWithPrefix calls at different K values (only the K-weighting of
// cached distances differs between calls). Trees fan out across
// opts.Workers goroutines — they share only read-only state, each tree
// writes its own disjoint Best/Pos entries, and the root reduction runs
// in ascending root order, so the result is deterministic and
// identical to the serial pass. Each tree is a cooperative
// cancellation point: a canceled ctx stops the DP promptly with a
// wrapped ctx error.
func CoverWithPrefix(ctx context.Context, dag *subject.DAG, forest *partition.Forest, prefix *Prefix, opts Options) (*Result, error) {
	return coverTrees(ctx, dag, forest, prefix, nil, opts, nil)
}

// CoverDelta re-runs the covering DP on only the trees dirty marks,
// copying every other tree's solutions and committed positions from
// prev. dirty is indexed like the prefix's trees. The result is
// byte-identical to CoverWithPrefix over the whole prefix at opts
// provided every clean tree's DP reads exactly what it read when prev
// was covered: the same enumeration, frozen snapshot and K, and field
// samples unchanged inside its territory. The caller owns that lineage
// (mapper.CoverState threads it); two dirty sources produce such masks:
//
//   - a structural ECO, where the tree's enumeration was rebuilt
//     (Rebuild.Dirty; see eco.go);
//   - a K-field update, where a changed gcell meets the tree's
//     territory (DirtyTreesForField; see fielddelta.go).
//
// Clean trees' solutions are immutable after covering, so the pointers
// themselves carry over.
func CoverDelta(ctx context.Context, dag *subject.DAG, forest *partition.Forest, prefix *Prefix, prev *Result, opts Options, dirty []bool) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("cover: CoverDelta needs a previous cover (use CoverWithPrefix)")
	}
	return coverTrees(ctx, dag, forest, prefix, prev, opts, dirty)
}

// coverTrees is the one covering loop: it runs the DP on every tree —
// or, with a prev, on the dirty trees only, copying the rest from prev
// — and reduces the roots.
func coverTrees(ctx context.Context, dag *subject.DAG, forest *partition.Forest, prefix *Prefix, prev *Result, opts Options, dirty []bool) (*Result, error) {
	if prefix == nil || prefix.dag != dag {
		return nil, fmt.Errorf("cover: prefix built for a different DAG")
	}
	reused := 0
	if prev != nil {
		if len(prev.Best) != dag.NumGates() {
			return nil, fmt.Errorf("cover: previous cover does not match the DAG")
		}
		if len(dirty) != len(prefix.trees) {
			return nil, fmt.Errorf("cover: %d dirty flags for %d trees", len(dirty), len(prefix.trees))
		}
		for _, d := range dirty {
			if !d {
				reused++
			}
		}
	}
	res := &Result{
		Best: make([]*Solution, dag.NumGates()),
		// The prefix's frozen pre-cover snapshot seeds the companion
		// placement; res.Pos receives the committed center-of-mass
		// updates.
		Pos: append([]geom.Point(nil), prefix.pos...),
	}
	rec := obs.From(ctx)
	rec.Add("cover.trees", int64(len(prefix.trees)))
	if prev != nil {
		rec.Add("cover.reused_trees", int64(reused))
	}
	ins := instruments{
		solutions: rec.Counter("cover.solutions"),
		matches:   rec.Counter("cover.matches"),
		perGate:   rec.Histogram("cover.matches_per_gate", matchesPerGateBounds),
	}
	err := par.ForEach(ctx, opts.Workers, len(prefix.trees), func(ti int) error {
		t := &prefix.trees[ti]
		if prev != nil && !dirty[ti] {
			for _, v := range t.Gates {
				res.Best[v] = prev.Best[v]
				res.Pos[v] = prev.Pos[v]
			}
			return nil
		}
		return coverTree(dag, forest, prefix, t, res, opts, ins)
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cover: canceled with %d trees pending: %w", len(prefix.trees), cerr)
		}
		return nil, err
	}
	for _, root := range forest.Roots {
		sol := res.Best[root]
		res.RootArea += sol.AreaCost
		res.RootWire += sol.Wire
	}
	return res, nil
}

// coverTree runs the bottom-up DP on one tree over the prefix's cached
// matches and commits the chosen cover's placement updates. Every
// K-invariant term (match sets, centers of mass, leaf classification,
// cross-leaf distances) comes from the prefix; only Eq. 5's K-weighted
// combination and the child-solution terms are evaluated here. The
// only writes are to this tree's own res.Best and res.Pos entries,
// which no other tree touches.
func coverTree(dag *subject.DAG, forest *partition.Forest, prefix *Prefix, t *partition.Tree, res *Result, opts Options, ins instruments) error {
	inTree := prefix.inTreeFunc(t.Root)
	field := opts.KField
	for _, v := range t.Gates {
		matches := prefix.matches[v]
		if len(matches) == 0 {
			return fmt.Errorf("cover: no match at gate %d (%s)", v, dag.Gate(v).Type)
		}
		ins.solutions.Add(1)
		ins.matches.Add(int64(len(matches)))
		ins.perGate.Observe(float64(len(matches)))
		var best *Solution
		var bestCost float64
		for i := range matches {
			pm := &matches[i]
			area := pm.m.Cell.Area
			// wire1/wire2 are Eqs. 2 and 3 as reported; wire1W/wire2W are
			// the K-field-weighted terms K multiplies, each span's length
			// scaled by the field multiplier sampled along it. Both run in
			// the same order, so under the uniform field — a nil one
			// included — they agree bit-for-bit (×1.0 is exact in IEEE
			// 754).
			wire1, wire2, wire1W, wire2W := 0.0, 0.0, 0.0, 0.0
			for li, l := range pm.m.Leaves {
				if pm.subLeaf[li] {
					// The leaf heads an input subtree of this match:
					// accumulate its DP solution (Eqs. 1 and 3).
					sub := res.Best[l]
					area += sub.AreaCost
					d := pm.com.Manhattan(sub.Pos) / wireUnit
					wire1 += d
					wire1W += field.SpanMult(pm.com, sub.Pos) * d
					wire2 += sub.WireCost
					wire2W += sub.WireCostW
				} else {
					// Cross reference (PI, another tree, or a side
					// branch): its area and wire are paid elsewhere.
					// The cached distance reads the frozen snapshot,
					// keeping this tree independent of every other
					// tree's committed updates.
					d := pm.crossDist[li] / wireUnit
					wire1 += d
					wire1W += field.SpanMult(pm.com, prefix.pos[l]) * d
				}
			}
			// wire is Eq. 4; kw is the wire term K multiplies (Eq. 5').
			wire, kw := wire1, wire1W
			if !opts.NoWire2 {
				wire += wire2
				kw += wire2W
			}
			// Eq. 5; the first of equal-cost matches wins.
			cost := area + opts.K*kw
			if best == nil || cost < bestCost {
				stored, storedW := wire1, wire1W
				if opts.TransitiveWire {
					// accumulates transitively via children
					stored, storedW = wire, kw
				}
				best = &Solution{
					Match:     pm.m,
					AreaCost:  area,
					WireCost:  stored,
					WireCostW: storedW,
					Wire:      wire,
					Pos:       pm.com,
				}
				bestCost = cost
			}
		}
		res.Best[v] = best
	}
	// Commit: walk the chosen cover from the root and replace covered
	// gates' positions with their match's center of mass. Explicit
	// stack — tree depth is unbounded on full-size circuits.
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sol := res.Best[v]
		for _, c := range sol.Match.Covered {
			res.Pos[c] = sol.Pos
		}
		stack = append(stack, SelectedLeafSubtrees(forest, inTree, sol)...)
	}
	return nil
}

// SelectedLeafSubtrees returns, for a solution in the forest, which of
// its match leaves head in-tree input subtrees (and therefore have
// their own committed solutions). Reconstruction uses this to walk the
// chosen cover.
func SelectedLeafSubtrees(forest *partition.Forest, inTree func(int) bool, sol *Solution) []int {
	covered := map[int]bool{}
	for _, c := range sol.Match.Covered {
		covered[c] = true
	}
	var out []int
	for _, l := range sol.Match.Leaves {
		if inTree(l) && covered[forest.Father[l]] {
			out = append(out, l)
		}
	}
	return out
}
