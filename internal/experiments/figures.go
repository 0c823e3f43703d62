package experiments

import (
	"context"

	"casyn"
	"casyn/internal/bench"
	"casyn/internal/flow"
	"casyn/internal/geom"
	"casyn/internal/mapper"
	"casyn/internal/place"
	"casyn/internal/subject"
)

// Figure1Mapping describes one of Figure 1's two mappings.
type Figure1Mapping struct {
	Label    string
	Cells    []string
	CellArea float64
	// Wire is the covering wire estimate (µm) — the total fanin
	// interconnection length of the selected matches.
	Wire float64
}

// Figure1 reproduces the paper's Figure 1 example: a small unbound
// netlist whose minimum-area cover (NAND3 + AOI21 + INV — the paper's
// cell mix) connects fanins placed far from their fanout, while the
// congestion-aware cover pays cell area to keep every cell next to its
// fanins and cuts the interconnection length by about a third.
func Figure1() (minArea, congestion Figure1Mapping, err error) {
	d := subject.New()
	a := d.AddPI("a")
	b := d.AddPI("b")
	c := d.AddPI("c")
	e := d.AddPI("d")
	f := d.AddPI("e")
	// AOI21 cone: p = (ab + c)'.
	n1 := d.AddNand2(a, b)
	i1 := d.AddInv(c)
	n2 := d.AddNand2(n1, i1)
	i2 := d.AddInv(n2)
	// NAND3 cone over (p, d', e). The minimum-area cover of this
	// netlist is NAND3 + AOI21 + INV — the paper's Figure 1 cell mix
	// (its second inverter belongs to surrounding logic the figure
	// crops away).
	id := d.AddInv(e)
	n3 := d.AddNand2(id, f)
	i5 := d.AddInv(n3)
	out := d.AddNand2(i2, i5)
	d.AddOutput("out", out)

	// Placement: the AOI21 cluster on the left, d/e and their gates
	// far right — so the min-area NAND3 stretches across the image
	// while smaller cells could sit next to their fanins.
	pos := make([]geom.Point, d.NumGates())
	left := geom.Pt(10, 20)
	for _, g := range []int{a, b, c, n1, i1, n2, i2} {
		pos[g] = left
		left = left.Add(geom.Pt(4, 0))
	}
	right := geom.Pt(150, 20)
	for _, g := range []int{e, f, id, n3, i5} {
		pos[g] = right
		right = right.Add(geom.Pt(4, 0))
	}
	pos[out] = geom.Pt(40, 20)

	runOnce := func(k float64, label string) (Figure1Mapping, error) {
		res, err := mapper.Map(context.Background(), d, mapper.Input{Pos: pos}, mapper.Options{K: k})
		if err != nil {
			return Figure1Mapping{}, err
		}
		m := Figure1Mapping{Label: label, CellArea: res.CellArea, Wire: res.WireEstimate}
		for i := range res.Netlist.Instances {
			m.Cells = append(m.Cells, res.Netlist.Instances[i].Cell.Name)
		}
		return m, nil
	}
	minArea, err = runOnce(0, "minimum area")
	if err != nil {
		return
	}
	congestion, err = runOnce(5, "congestion minimization")
	return
}

// Figure3Result is the outcome of the modified design-flow demo.
type Figure3Result struct {
	Iterations []flow.Iteration
	AcceptedK  float64
	Routable   bool
}

// Figure3 demonstrates the paper's modified ASIC design flow: the
// technology-independent netlist is placed once, then K is increased
// until the congestion map is acceptable (the flow stops at the first
// routable mapping). scale shrinks the circuit for tests/benchmarks;
// tighten > 1 shrinks the die by that factor so the early iterations
// are congested (pass 1 for the standard floorplan).
func Figure3(ctx context.Context, class bench.Class, scale, tighten float64) (*Figure3Result, error) {
	d, err := buildSubject(class, scale, bench.Direct)
	if err != nil {
		return nil, err
	}
	layout, err := sweepLayout(ctx, class, scale, d)
	if err != nil {
		return nil, err
	}
	if tighten > 1 {
		layout, err = place.NewLayout(layout.Area()/tighten, 1.0, layout.RowHeight)
		if err != nil {
			return nil, err
		}
	}
	cfg := casyn.FlowConfig(layout, casyn.Options{})
	cfg.StopAtFirstRoutable = true
	pc, err := flow.Prepare(ctx, d, cfg)
	if err != nil {
		return nil, err
	}
	res, err := flow.Run(ctx, pc, cfg)
	if err != nil {
		return nil, err
	}
	out := &Figure3Result{Iterations: res.Iterations}
	if best := res.Best(); best != nil {
		out.AcceptedK = best.K
		out.Routable = best.Routable
	}
	return out, nil
}
