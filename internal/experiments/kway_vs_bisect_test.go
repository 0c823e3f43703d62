package experiments

// The k-way partitioning experiment: direct k-way FM moves plus
// cut-driver replication versus the recursive-bisection seed, on the
// Steiner-tree cut metric the router actually pays (see "A Direct
// k-Way Hypergraph Partitioning Algorithm for Optimizing the Steiner
// Tree Metric" and RePart in PAPERS.md). Two kinds of rows:
//
//   - End-to-end rows (KWayVsBisect): a bench circuit through the real
//     flow twice over the same die regions — once mapped from the
//     bisection-seed assignment (a zero-move k-way run, bit-identical
//     to today's forest), once from the moved + replicated partition —
//     comparing cut nets, Steiner cost, and routed overflow.
//   - Pressure rows (KWayPressure): synthetic 100k/250k-gate subjects,
//     partition metrics only, pinning the scaling behavior promised in
//     ROADMAP item 3's spirit for the partitioner itself.

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/geom"
	"casyn/internal/library"
	"casyn/internal/mapper"
	"casyn/internal/partition"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// KWayRow is one circuit's bisection-versus-k-way comparison.
type KWayRow struct {
	// Circuit names the subject ("SPLA", "PDC", "synthetic-100000").
	Circuit string `json:"circuit"`
	// Gates is the live base-gate count; Trees the forest size.
	Gates int `json:"gates"`
	Trees int `json:"trees"`
	// K is the region (die) count.
	K int `json:"k"`
	// CutNetsBisect/SteinerBisect score the recursive-bisection seed
	// assignment; CutNetsKWay/SteinerKWay the moved + replicated one.
	CutNetsBisect int     `json:"cut_nets_bisect"`
	SteinerBisect float64 `json:"steiner_bisect"`
	CutNetsKWay   int     `json:"cut_nets_kway"`
	SteinerKWay   float64 `json:"steiner_kway"`
	// Moves counts accepted FM moves; Replicas the cut drivers cloned
	// across the boundary.
	Moves    int `json:"moves"`
	Replicas int `json:"replicas"`
	// Verified reports that the replicated subject was proven
	// equivalent to the original (always attempted on end-to-end rows
	// with replicas; skipped on pressure rows).
	Verified bool `json:"verified,omitempty"`
	// Routed marks end-to-end rows; the overflow fields compare the
	// routed failed connections of the two arms over identical die
	// regions (boundary-derated, pin budget unchecked).
	Routed          bool `json:"routed,omitempty"`
	OverflowBisect  int  `json:"overflow_bisect,omitempty"`
	OverflowKWay    int  `json:"overflow_kway,omitempty"`
	CrossNetsBisect int  `json:"cross_nets_bisect,omitempty"`
	CrossNetsKWay   int  `json:"cross_nets_kway,omitempty"`
}

// KWayVsBisect runs one bench circuit end to end through both arms on
// identical die regions and returns the comparison row. The bisection
// arm maps the seed forest unchanged (the zero-move k-way identity)
// and routes it with the same boundary derate as the k-way arm, so
// the overflow delta isolates the partitioning change.
func KWayVsBisect(ctx context.Context, class bench.Class, scale float64, dies, workers int) (*KWayRow, error) {
	if dies < 2 {
		return nil, fmt.Errorf("experiments: KWayVsBisect needs dies >= 2 (got %d)", dies)
	}
	d, err := buildSubject(class, scale, bench.Direct)
	if err != nil {
		return nil, err
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, library.RowHeight)
	if err != nil {
		return nil, err
	}
	cfg := casyn.FlowConfig(layout, casyn.Options{
		Dies:              dies,
		InterDiePinBudget: -1, // measure overflow, not admission
		Workers:           workers,
		Verify:            true, // prove the replicated subject equivalent
	})
	cfg.KSchedule = []float64{0}
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		return nil, err
	}

	// Shared seed forest; the k-way arm is the production PrepareMapping
	// path (moves + replication + equivalence proof).
	forest, err := partition.Partition(partition.Input{
		DAG: pc.DAG, Pos: pc.Pos, POPads: pc.POPads,
	}, cfg.Method)
	if err != nil {
		return nil, err
	}
	pcK := *pc
	if err := flow.PrepareMapping(ctx, &pcK, cfg); err != nil {
		return nil, err
	}
	kres := pcK.KWay
	if kres == nil {
		return nil, fmt.Errorf("experiments: multi-die prepare produced no k-way result")
	}

	// Bisection arm: zero-move k-way (bit-identical forest) mapped and
	// routed over the same regions.
	seed, err := partition.KWay(pc.DAG, forest, partition.KWayOptions{
		K: dies, Die: layout.Die, Pos: pc.Pos, POPads: pc.POPads, MovePasses: -1,
	})
	if err != nil {
		return nil, err
	}
	prepB, err := mapper.PrepareForest(ctx, pc.DAG, forest,
		mapper.Input{Pos: pc.Pos, POPads: pc.POPads},
		mapper.Options{Method: cfg.Method, Workers: workers})
	if err != nil {
		return nil, err
	}
	pcB := *pc
	pcB.Prep = prepB
	pcB.Regions = seed.Regions
	pcB.KWay = seed

	itB, err := flow.RunOnce(ctx, &pcB, 0, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: bisection arm: %w", err)
	}
	itK, err := flow.RunOnce(ctx, &pcK, 0, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: k-way arm: %w", err)
	}

	treeGates := 0
	for _, tr := range forest.Trees() {
		treeGates += len(tr.Gates)
	}
	return &KWayRow{
		Circuit:         class.String(),
		Gates:           treeGates,
		Trees:           len(forest.Roots),
		K:               dies,
		CutNetsBisect:   kres.CutNetsSeed,
		SteinerBisect:   kres.SteinerSeed,
		CutNetsKWay:     kres.CutNets,
		SteinerKWay:     kres.Steiner,
		Moves:           kres.Moves,
		Replicas:        kres.Replicas,
		Verified:        kres.Replicas > 0, // PrepareMapping proved it (cfg.Verify)
		Routed:          true,
		OverflowBisect:  itB.FailedConnections,
		OverflowKWay:    itK.FailedConnections,
		CrossNetsBisect: itB.CrossRegionNets,
		CrossNetsKWay:   itK.CrossRegionNets,
	}, nil
}

// KWayPressure partitions a synthetic subject of the given size —
// partition metrics only, no covering or routing — so the benchmark
// tracks the partitioner's behavior at 100k/250k gates without paying
// a full flow at that scale. MovePasses is capped at 1 to bound the
// benchmark's wall clock; the metrics are monotone in passes, so this
// is a conservative reading of the k-way gain.
func KWayPressure(gates, pis, dies int, seed int64) (*KWayRow, error) {
	if dies < 2 {
		return nil, fmt.Errorf("experiments: KWayPressure needs dies >= 2 (got %d)", dies)
	}
	d, pos, die, err := syntheticSubject(gates, pis, seed)
	if err != nil {
		return nil, err
	}
	forest, err := partition.Partition(partition.Input{DAG: d, Pos: pos}, partition.PDP)
	if err != nil {
		return nil, err
	}
	kres, err := partition.KWay(d, forest, partition.KWayOptions{
		K: dies, Die: die, Pos: pos, MovePasses: 1, Replicate: true,
	})
	if err != nil {
		return nil, err
	}
	treeGates := 0
	for _, tr := range forest.Trees() {
		treeGates += len(tr.Gates)
	}
	return &KWayRow{
		Circuit:       fmt.Sprintf("synthetic-%d", gates),
		Gates:         treeGates,
		Trees:         len(forest.Roots),
		K:             dies,
		CutNetsBisect: kres.CutNetsSeed,
		SteinerBisect: kres.SteinerSeed,
		CutNetsKWay:   kres.CutNets,
		SteinerKWay:   kres.Steiner,
		Moves:         kres.Moves,
		Replicas:      kres.Replicas,
	}, nil
}

// syntheticSubject builds a deterministic random NAND/INV DAG with
// scattered positions on a die sized for 58% utilization — the same
// shape the partitioner's pressure tests use, as a library function so
// the benchmark can reach it.
func syntheticSubject(gates, pis int, seed int64) (*subject.DAG, []geom.Point, geom.Rect, error) {
	rng := rand.New(rand.NewSource(seed))
	d := subject.New()
	ids := make([]int, 0, pis+gates)
	for i := 0; i < pis; i++ {
		ids = append(ids, d.AddPI(fmt.Sprintf("pi%d", i)))
	}
	pick := func() int {
		// Bias toward recent gates so the DAG has depth as well as
		// multi-fanout reconvergence.
		w := len(ids)
		if w > 64 && rng.Intn(4) != 0 {
			return ids[w-64+rng.Intn(64)]
		}
		return ids[rng.Intn(w)]
	}
	for i := 0; i < gates; i++ {
		a, b := pick(), pick()
		var g int
		if a != b && rng.Intn(8) == 0 {
			g = d.AddInv(a)
		} else {
			g = d.AddNand2(a, b)
		}
		ids = append(ids, g)
	}
	// A handful of outputs keeps most of the DAG live.
	for i := 0; i < 8 && i < len(ids); i++ {
		d.AddOutput(fmt.Sprintf("po%d", i), ids[len(ids)-1-i])
	}
	layout, err := place.NewLayout(float64(d.BaseGateCount())*4.6/0.58, 1.0, library.RowHeight)
	if err != nil {
		return nil, nil, geom.Rect{}, err
	}
	die := layout.Die
	pos := make([]geom.Point, d.NumGates())
	for i := range pos {
		pos[i] = geom.Pt(die.Min.X+rng.Float64()*die.W(), die.Min.Y+rng.Float64()*die.H())
	}
	return d, pos, die, nil
}

// WriteKWayTable prints the comparison in the experiments' table
// style.
func WriteKWayTable(w io.Writer, rows []KWayRow) {
	fmt.Fprintf(w, "%-16s %8s %6s %3s | %9s %9s %12s %12s | %6s %8s | %9s %9s\n",
		"circuit", "gates", "trees", "k",
		"cut(bis)", "cut(kway)", "st(bis)", "st(kway)",
		"moves", "replicas", "ovfl(bis)", "ovfl(kway)")
	for _, r := range rows {
		ovB, ovK := "-", "-"
		if r.Routed {
			ovB = fmt.Sprintf("%d", r.OverflowBisect)
			ovK = fmt.Sprintf("%d", r.OverflowKWay)
		}
		fmt.Fprintf(w, "%-16s %8d %6d %3d | %9d %9d %12.1f %12.1f | %6d %8d | %9s %9s\n",
			r.Circuit, r.Gates, r.Trees, r.K,
			r.CutNetsBisect, r.CutNetsKWay, r.SteinerBisect, r.SteinerKWay,
			r.Moves, r.Replicas, ovB, ovK)
	}
}
