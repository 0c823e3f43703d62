package sta

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// SlackReport is a per-endpoint timing summary against a required
// time: the sign-off view of an Analyze result.
type SlackReport struct {
	RequiredNs float64
	// Endpoints are sorted by ascending slack (most critical first).
	Endpoints []EndpointSlack
	// WorstSlack and TotalNegativeSlack are the standard QoR numbers.
	WorstSlack         float64
	TotalNegativeSlack float64
	FailingEndpoints   int
}

// EndpointSlack is one primary output's arrival and slack.
type EndpointSlack struct {
	PO      string
	Arrival float64
	Slack   float64
}

// Slacks evaluates the analysis against a required arrival time.
func (r *Result) Slacks(requiredNs float64) *SlackReport {
	rep := &SlackReport{RequiredNs: requiredNs}
	for po, arr := range r.ArrivalByPO {
		s := requiredNs - arr
		rep.Endpoints = append(rep.Endpoints, EndpointSlack{PO: po, Arrival: arr, Slack: s})
		if s < 0 {
			rep.TotalNegativeSlack += s
			rep.FailingEndpoints++
		}
	}
	sort.Slice(rep.Endpoints, func(i, j int) bool {
		if rep.Endpoints[i].Slack != rep.Endpoints[j].Slack {
			return rep.Endpoints[i].Slack < rep.Endpoints[j].Slack
		}
		return rep.Endpoints[i].PO < rep.Endpoints[j].PO
	})
	if len(rep.Endpoints) > 0 {
		rep.WorstSlack = rep.Endpoints[0].Slack
	}
	return rep
}

// Write emits the report, PrimeTime-style: worst paths first, capped
// at maxEndpoints rows (0 = all).
func (s *SlackReport) Write(w io.Writer, maxEndpoints int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "required: %.3f ns   worst slack: %+.3f ns   TNS: %+.3f ns   failing: %d/%d\n",
		s.RequiredNs, s.WorstSlack, s.TotalNegativeSlack, s.FailingEndpoints, len(s.Endpoints))
	n := len(s.Endpoints)
	if maxEndpoints > 0 && maxEndpoints < n {
		n = maxEndpoints
	}
	for _, e := range s.Endpoints[:n] {
		status := "MET"
		if e.Slack < 0 {
			status = "VIOLATED"
		}
		fmt.Fprintf(bw, "  %-20s arrival %8.3f ns   slack %+8.3f ns   %s\n", e.PO, e.Arrival, e.Slack, status)
	}
	return bw.Flush()
}

// WritePath emits the critical path, one stage per line.
func (r *Result) WritePath(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "critical path: %s\n", r)
	prev := 0.0
	for i, p := range r.Path {
		kind := "net"
		if p.Through != "" {
			kind = p.Through
		} else if i == 0 {
			kind = "input"
		}
		fmt.Fprintf(bw, "  %-20s %-8s arrival %8.3f ns  (+%.3f)\n", p.Name, kind, p.Arrival, p.Arrival-prev)
		prev = p.Arrival
	}
	return bw.Flush()
}
