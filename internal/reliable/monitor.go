package reliable

import "distmwis/internal/graph"

// RepairReport summarises one self-healing pass over a candidate set.
type RepairReport struct {
	// Conflicts counts edges found with both endpoints in the set.
	Conflicts int
	// Withdrawn counts nodes removed to restore independence.
	Withdrawn int
	// WithdrawnWeight is the total weight of the withdrawn nodes.
	WithdrawnWeight int64
}

// Repair is the runtime self-healing monitor: it checks the independence
// invariant over the candidate set and performs local repair in place —
// for every conflicting edge the endpoint graph.Before ranks later
// withdraws (graph.Withdraw: the lower-weight endpoint, ties to the higher
// identifier). Each decision looks only at the two endpoints of one edge,
// so the repair is a local rule a real deployment would run as a one-round
// distributed check; here it runs on the host after output collection,
// where it heals the residual failure modes the transport cannot mask — a
// crash-stop neighbour declared dead mid-protocol can leave both endpoints
// of an edge believing they joined.
//
// Repair only ever shrinks the set, so every guarantee that survives a
// passive degraded run (independence after CheckIndependence-style
// filtering) is preserved, and the result is always independent. Edges are
// scanned in ascending (v, u) order and decisions apply immediately, which
// makes the outcome deterministic and independent of the worker count.
func Repair(g *graph.Graph, set []bool) RepairReport {
	var rep RepairReport
	n := g.N()
	for v := 0; v < n; v++ {
		if !set[v] {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if int(u) <= v {
				continue
			}
			if loser := g.Withdraw(set, v, int(u)); loser >= 0 {
				rep.Conflicts++
				rep.Withdrawn++
				rep.WithdrawnWeight += g.Weight(loser)
			}
		}
	}
	return rep
}
