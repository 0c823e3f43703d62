package partition

import (
	"math/rand"
	"testing"

	"casyn/internal/geom"
	"casyn/internal/subject"
)

func TestDieRegions(t *testing.T) {
	t.Parallel()
	die := geom.R(0, 0, 100, 60)
	for _, k := range []int{1, 2, 3, 4, 7, 8} {
		regs := DieRegions(die, k)
		if len(regs) != k {
			t.Fatalf("k=%d: %d regions", k, len(regs))
		}
		total := 0.0
		for i, r := range regs {
			if r.W() <= 0 || r.H() <= 0 {
				t.Fatalf("k=%d: degenerate region %v", k, r)
			}
			total += r.Area()
			for j := i + 1; j < k; j++ {
				o := regs[j]
				// Territory disjointness: regions may share edges but
				// never interior area.
				w := mathMin(r.Max.X, o.Max.X) - mathMax(r.Min.X, o.Min.X)
				h := mathMin(r.Max.Y, o.Max.Y) - mathMax(r.Min.Y, o.Min.Y)
				if w > 1e-9 && h > 1e-9 {
					t.Fatalf("k=%d: regions %d and %d overlap", k, i, j)
				}
			}
		}
		if diff := total - die.Area(); diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("k=%d: region areas sum to %g, die is %g", k, total, die.Area())
		}
	}
	// Determinism.
	a := DieRegions(die, 8)
	b := DieRegions(die, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("DieRegions not deterministic")
		}
	}
}

func mathMin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func mathMax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// TestKWayZeroMoveBitIdentical pins the acceptance anchor: a run with
// no move passes and no replication returns the input DAG, forest, and
// placement pointer-identical — today's recursive-bisection behavior.
func TestKWayZeroMoveBitIdentical(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	d := randomDAG(rng, 8, 120)
	pos := make([]geom.Point, d.NumGates())
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	f, err := Partition(Input{DAG: d, Pos: pos}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KWay(d, f, KWayOptions{
		K: 4, Die: geom.R(0, 0, 100, 100), Pos: pos,
		MovePasses: -1, Replicate: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DAG != d || res.Forest != f {
		t.Fatal("zero-move run must return the input DAG and forest unchanged")
	}
	if len(res.Pos) != len(pos) || &res.Pos[0] != &pos[0] {
		t.Fatal("zero-move run must return the input placement unchanged")
	}
	if res.Moves != 0 || res.Replicas != 0 {
		t.Fatalf("zero-move run reports moves=%d replicas=%d", res.Moves, res.Replicas)
	}
	if res.CutNets != res.CutNetsSeed || res.Steiner != res.SteinerSeed {
		t.Fatal("zero-move metrics must equal the seed metrics")
	}
}

// kwayAssignments recounts tree gates per region from RegionOf.
func kwayAssignments(res *KWayResult) []int {
	areas := make([]int, len(res.Regions))
	for _, r := range res.RegionOf {
		if r >= 0 {
			areas[r]++
		}
	}
	return areas
}

// TestKWayInvariants extends the partitioner invariant suite to direct
// k-way runs for k in {2,4,8}, with replication enabled: the result
// forest keeps exactly-once membership, both metrics are monotone
// non-increasing from the seed, every region stays within the balance
// cap it started under, and a replicated DAG is functionally identical
// to the original on every input.
func TestKWayInvariants(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	die := geom.R(0, 0, 100, 100)
	for trial := 0; trial < 6; trial++ {
		d := randomDAG(rng, 6, 80)
		pos := make([]geom.Point, d.NumGates())
		for i := range pos {
			pos[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		f, err := Partition(Input{DAG: d, Pos: pos}, PDP)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4, 8} {
			opt := KWayOptions{K: k, Die: die, Pos: pos, Replicate: true}
			res, err := KWay(d, f, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkForestInvariants(t, res.DAG, res.Forest, PDP)
			if res.CutNets > res.CutNetsSeed {
				t.Fatalf("k=%d: cut nets rose %d -> %d", k, res.CutNetsSeed, res.CutNets)
			}
			if res.Steiner > res.SteinerSeed+1e-9 {
				t.Fatalf("k=%d: steiner rose %g -> %g", k, res.SteinerSeed, res.Steiner)
			}
			// Balance: no region may exceed max(seed load, cap).
			seed, err := KWay(d, f, KWayOptions{K: k, Die: die, Pos: pos, MovePasses: -1})
			if err != nil {
				t.Fatal(err)
			}
			after := kwayAssignments(res)
			before := kwayAssignments(seed)
			total := 0
			for _, a := range before {
				total += a
			}
			perRegion := (total + k - 1) / k
			cap := perRegion + int(float64(perRegion)*0.15)
			for r := range after {
				limit := cap
				if before[r] > limit {
					limit = before[r]
				}
				if after[r] > limit {
					t.Fatalf("k=%d: region %d has %d gates, limit %d (seed %d)",
						k, r, after[r], limit, before[r])
				}
			}
			// Region assignment is per tree: every gate of a tree lands
			// in its root's region, and only PIs/consts/dead are -1.
			rootOf := res.Forest.RootOf()
			for g, reg := range res.RegionOf {
				if r := rootOf[g]; r >= 0 {
					if reg < 0 || reg != res.RegionOf[r] {
						t.Fatalf("k=%d: gate %d region %d, root %d region %d",
							k, g, reg, r, res.RegionOf[r])
					}
				} else if reg != -1 {
					t.Fatalf("k=%d: non-tree gate %d has region %d", k, g, reg)
				}
			}
			// Functional equivalence of the replicated DAG (small PI
			// count: exhaustive).
			if res.Replicas > 0 {
				checkSameFunction(t, d, res.DAG)
			}
		}
	}
}

// checkSameFunction exhaustively compares two DAGs with the same PI
// and output interface.
func checkSameFunction(t *testing.T, a, b *subject.DAG) {
	t.Helper()
	n := len(a.PIs())
	if n > 16 {
		t.Fatalf("checkSameFunction: %d PIs too many for exhaustive check", n)
	}
	in := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for i := range in {
			in[i] = m&(1<<i) != 0
		}
		oa, err := a.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := b.EvalOutputs(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("outputs differ on input %b: %v vs %v", m, oa, ob)
			}
		}
	}
}

// TestKWayReplicatesAcrossCut drives the replication path directly: a
// multi-fanout driver anchored on the left die half (by its output
// pad) with every gate sink on the right half. Moving the driver tree
// cannot help (the pad pins it), so only replication removes the cut
// net.
func TestKWayReplicatesAcrossCut(t *testing.T) {
	t.Parallel()
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	drv := d.AddNand2(a, b) // multi-fanout driver, left
	s1 := d.AddNand2(drv, c)
	s2 := d.AddInv(drv)
	d.AddOutput("odrv", drv)
	d.AddOutput("o1", s1)
	d.AddOutput("o2", s2)

	pos := make([]geom.Point, d.NumGates())
	pos[drv] = geom.Pt(10, 50)
	pos[s1] = geom.Pt(90, 40)
	pos[s2] = geom.Pt(90, 60)
	pads := map[int][]geom.Point{
		drv: {geom.Pt(0, 50)},
		s1:  {geom.Pt(100, 40)},
		s2:  {geom.Pt(100, 60)},
	}
	f, err := Partition(Input{DAG: d, Pos: pos, POPads: pads}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KWay(d, f, KWayOptions{
		K: 2, Die: geom.R(0, 0, 100, 100), Pos: pos, POPads: pads,
		Replicate: true, ReplicaAreaBudget: 1, BalanceTol: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas != 1 {
		t.Fatalf("replicas = %d, want 1", res.Replicas)
	}
	if res.DAG == d {
		t.Fatal("replication must clone the DAG, not mutate the input")
	}
	if d.Replicated() {
		t.Fatal("input DAG mutated by replication")
	}
	if res.CutNets >= res.CutNetsSeed {
		t.Fatalf("cut nets %d not reduced from seed %d", res.CutNets, res.CutNetsSeed)
	}
	if res.Steiner >= res.SteinerSeed {
		t.Fatalf("steiner %g not reduced from seed %g", res.Steiner, res.SteinerSeed)
	}
	// The replica is its own single-gate tree in the right region,
	// placed at its sinks' center of mass, and clones the driver.
	rid := res.DAG.NumGates() - 1
	if rg, dg := res.DAG.Gate(rid), res.DAG.Gate(drv); !res.DAG.Replicated() || rg.Type != dg.Type || rg.In != dg.In {
		t.Fatalf("gate %d = %+v is not a replica of driver %+v", rid, rg, dg)
	}
	if res.Forest.Father[rid] != -1 {
		t.Fatal("replica must be a forest root")
	}
	if got := res.RegionOf[rid]; got != res.RegionOf[s1] {
		t.Fatalf("replica region %d, sinks in %d", got, res.RegionOf[s1])
	}
	want := geom.CenterOfMass([]geom.Point{pos[s1], pos[s2]})
	if res.Pos[rid] != want {
		t.Fatalf("replica at %v, want sink center %v", res.Pos[rid], want)
	}
	// The original keeps the PO; the sinks read the replica.
	for _, o := range res.DAG.Outputs() {
		if o.Name == "odrv" && o.Gate != drv {
			t.Fatal("PO moved off the original driver")
		}
	}
	for _, s := range []int{s1, s2} {
		found := false
		for _, fi := range res.DAG.Fanins(s) {
			if fi == rid {
				found = true
			}
		}
		if !found {
			t.Fatalf("sink %d not rewired onto replica", s)
		}
	}
	checkForestInvariants(t, res.DAG, res.Forest, PDP)
	checkSameFunction(t, d, res.DAG)
}

// TestDeepChainNoStackOverflow is the satellite-1 regression: the cone
// grower and the tree materializer used to recurse once per gate and
// could blow the stack on million-gate chains. The explicit-stack
// rewrites must handle a 1M-gate chain.
func TestDeepChainNoStackOverflow(t *testing.T) {
	t.Parallel()
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	prev := d.AddNand2(a, b)
	const depth = 1 << 20
	for i := 0; i < depth; i++ {
		// NAND(prev, b) never folds and never re-shares: a fresh gate
		// per step, one deep chain.
		prev = d.AddNand2(prev, b)
	}
	d.AddOutput("o", prev)
	for _, m := range []Method{Cone, Dagon} {
		f, err := Partition(Input{DAG: d}, m)
		if err != nil {
			t.Fatal(err)
		}
		trees := f.Trees()
		if len(trees) != 1 {
			t.Fatalf("%v: %d trees for a single chain", m, len(trees))
		}
		if got := len(trees[0].Gates); got != depth+1 {
			t.Fatalf("%v: chain tree has %d gates, want %d", m, got, depth+1)
		}
		rootOf := f.RootOf()
		if rootOf[trees[0].Gates[0]] != prev {
			t.Fatalf("%v: deepest gate not rooted at the chain head", m)
		}
	}
}

// TestStatsCachedMatchesRecomputed is the satellite-3 regression: the
// Forest caches trees, root lookup, and stats at finish() time; the
// cached values must equal a from-scratch recomputation.
func TestStatsCachedMatchesRecomputed(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		d := randomDAG(rng, 6, 60)
		f, err := Partition(Input{DAG: d}, Dagon)
		if err != nil {
			t.Fatal(err)
		}
		fresh := f.computeRootOf(d.NumGates())
		cached := f.RootOf()
		for g := range fresh {
			if fresh[g] != cached[g] {
				t.Fatalf("rootOf[%d]: cached %d, recomputed %d", g, cached[g], fresh[g])
			}
		}
	}
}

// TestKWayPressure250k is ROADMAP item 3's promised default-run
// pressure point: a 250k-gate subject through PDP partitioning and a
// replicating k-way run, with the invariant suite over the result.
func TestKWayPressure250k(t *testing.T) {
	if testing.Short() {
		t.Skip("250k-gate pressure point skipped in -short")
	}
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	d := randomDAG(rng, 64, 250_000)
	pos := make([]geom.Point, d.NumGates())
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	f, err := Partition(Input{DAG: d, Pos: pos}, PDP)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KWay(d, f, KWayOptions{
		K: 4, Die: geom.R(0, 0, 1000, 1000), Pos: pos,
		MovePasses: 1, Replicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutNets > res.CutNetsSeed || res.Steiner > res.SteinerSeed+1e-6 {
		t.Fatalf("metrics rose: cut %d->%d steiner %g->%g",
			res.CutNetsSeed, res.CutNets, res.SteinerSeed, res.Steiner)
	}
	checkForestInvariants(t, res.DAG, res.Forest, PDP)
	t.Logf("250k pressure: cut %d->%d steiner %.0f->%.0f moves=%d replicas=%d",
		res.CutNetsSeed, res.CutNets, res.SteinerSeed, res.Steiner, res.Moves, res.Replicas)
}
