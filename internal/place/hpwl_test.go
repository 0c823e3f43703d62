package place

// HPWL returns the total half-perimeter wirelength of the netlist
// under placement p, including pad locations: the tests' placement
// quality measure.
func (nl *Netlist) HPWL(p *Placement) float64 {
	total := 0.0
	for i := range nl.Nets {
		total += nl.NetHPWL(p, i)
	}
	return total
}

// NetHPWL returns the half-perimeter wirelength of one net, recomputed
// from scratch: the oracle for refine's incremental box cache.
func (nl *Netlist) NetHPWL(p *Placement, net int) float64 {
	if nl.Nets[net].Degree() < 2 {
		return 0
	}
	return nl.netBox(p, net).HalfPerimeter()
}
