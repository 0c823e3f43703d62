// Package sta implements static timing analysis over a mapped netlist
// and its routed wirelengths: topological arrival-time propagation
// with a linear cell delay model (intrinsic + drive·load) and lumped
// Elmore wire delay, plus critical-path extraction.
//
// It stands in for the PrimeTime runs of the paper's Tables 3 and 5:
// the absolute numbers differ from a sign-off engine, but the relative
// comparison across mapping styles — which is what the tables show —
// is preserved because all netlists are measured with the same model.
package sta

import (
	"fmt"
	"math"

	"casyn/internal/netlist"
)

// The interconnect and boundary parameters. Primary inputs arrive at
// time 0.
const (
	// wireCapPerUm is wire capacitance in pF/µm, a 0.18 µm-class value
	// where wire cap dominates gate cap.
	wireCapPerUm = 0.00025
	// wireResPerUm is wire resistance in kΩ/µm.
	wireResPerUm = 0.0001
	// poLoadCap is the load on each primary output in pF.
	poLoadCap = 0.03
	// piDrive is the resistance of the input drivers in kΩ.
	piDrive = 1.5
)

// Options has no settable field; the analyzer's parameters are the
// constants above. It stays because cmd/casynbench passes one.
type Options struct{}

// PathPoint is one element of a reported timing path.
type PathPoint struct {
	// Name is the signal or port name.
	Name string
	// Through is the cell name of the driving instance ("" at a PI).
	Through string
	// Arrival is the arrival time at this point in ns.
	Arrival float64
}

// Result is a completed timing analysis.
type Result struct {
	// MaxArrival is the worst primary-output arrival time in ns (the
	// "Critical Path Arrival Time" of Tables 3/5).
	MaxArrival float64
	// CriticalPO and CriticalPI name the endpoints of the critical
	// path.
	CriticalPO string
	CriticalPI string
	// Path lists the critical path from PI to PO.
	Path []PathPoint
	// ArrivalByPO maps each primary output to its arrival time; used
	// for the paper's "same path as the K=0 critical path" columns.
	ArrivalByPO map[string]float64
	// TotalNetSwitchingCap is the summed wire load in pF (reported for
	// the congestion/wirelength correlation analysis).
	TotalNetSwitchingCap float64
}

// String formats the critical path in the tables' style.
func (r *Result) String() string {
	return fmt.Sprintf("%s (in) -> %s (out)  %.2f ns", r.CriticalPI, r.CriticalPO, r.MaxArrival)
}

// Analyze runs STA on the netlist. netLenOfSig gives the routed length
// in µm of each signal's net (indexed by SigID); nil entries or a nil
// slice fall back to zero wirelength (pre-route timing).
func Analyze(nl *netlist.Netlist, netLenOfSig []float64, _ Options) (*Result, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	nSig := len(nl.Signals)
	wireLen := func(s netlist.SigID) float64 {
		if netLenOfSig == nil || int(s) >= len(netLenOfSig) {
			return 0
		}
		return netLenOfSig[s]
	}

	// Pin loads per signal.
	pinCap := make([]float64, nSig)
	for i := range nl.Instances {
		inst := &nl.Instances[i]
		for _, s := range inst.Inputs {
			pinCap[s] += inst.Cell.InputCap
		}
	}
	for _, po := range nl.POs {
		pinCap[po.Sig] += poLoadCap
	}

	res := &Result{ArrivalByPO: make(map[string]float64, len(nl.POs))}

	// loadOf is the total capacitance a driver of signal s sees.
	loadOf := func(s netlist.SigID) float64 {
		return wireLen(s)*wireCapPerUm + pinCap[s]
	}
	// wireDelay is the lumped Elmore delay across signal s's net.
	wireDelay := func(s netlist.SigID) float64 {
		l := wireLen(s)
		rw := l * wireResPerUm
		return rw * (l*wireCapPerUm/2 + pinCap[s])
	}

	arrival := make([]float64, nSig) // at the driver output
	atSink := make([]float64, nSig)  // after the wire
	critPred := make([]int, nSig)    // critical input signal per gate signal
	for i := range critPred {
		critPred[i] = -1
	}

	// Primary inputs and constants.
	for _, s := range nl.PIs {
		arrival[s] = piDrive * loadOf(s)
		atSink[s] = arrival[s] + wireDelay(s)
	}
	for si := range nl.Signals {
		if k := nl.Signals[si].Kind; k == netlist.SigConst0 || k == netlist.SigConst1 {
			arrival[si] = 0
			atSink[si] = 0
		}
	}
	// Instances in topological order.
	for _, ii := range order {
		inst := &nl.Instances[ii]
		worst := 0.0
		pred := -1
		for _, s := range inst.Inputs {
			if atSink[s] > worst {
				worst = atSink[s]
				pred = int(s)
			}
		}
		out := inst.Output
		gate := inst.Cell.Intrinsic + inst.Cell.Drive*loadOf(out)
		arrival[out] = worst + gate
		atSink[out] = arrival[out] + wireDelay(out)
		critPred[out] = pred
	}
	// Accumulate total switching cap once per signal.
	for si := range nl.Signals {
		res.TotalNetSwitchingCap += wireLen(netlist.SigID(si)) * wireCapPerUm
	}

	// Worst PO.
	res.MaxArrival = math.Inf(-1)
	var critSig netlist.SigID = -1
	for _, po := range nl.POs {
		a := atSink[po.Sig]
		res.ArrivalByPO[po.Name] = a
		if a > res.MaxArrival {
			res.MaxArrival = a
			res.CriticalPO = po.Name
			critSig = po.Sig
		}
	}
	if len(nl.POs) == 0 {
		return nil, fmt.Errorf("sta: netlist has no primary outputs")
	}

	// Walk the critical path back to a PI.
	var rev []PathPoint
	s := critSig
	for s >= 0 {
		sig := &nl.Signals[s]
		through := ""
		if sig.Kind == netlist.SigGate {
			through = nl.Instances[sig.Driver].Cell.Name
		}
		rev = append(rev, PathPoint{Name: sig.Name, Through: through, Arrival: arrival[s]})
		if sig.Kind == netlist.SigPI {
			res.CriticalPI = sig.Name
			break
		}
		if sig.Kind != netlist.SigGate {
			break // constant source
		}
		s = netlist.SigID(critPred[s])
	}
	res.Path = make([]PathPoint, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		res.Path = append(res.Path, rev[i])
	}
	return res, nil
}

// NetLengths maps a routed result back onto signals: given the
// signal-to-net mapping from netlist.ToPlacement and the router's
// per-net lengths, it returns per-signal lengths for Analyze.
func NetLengths(sigNet []int, netLength []float64) []float64 {
	out := make([]float64, len(sigNet))
	for s, n := range sigNet {
		if n >= 0 && n < len(netLength) {
			out[s] = netLength[n]
		}
	}
	return out
}
