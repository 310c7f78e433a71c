package maxis

import (
	"fmt"

	"distmwis/internal/graph"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"
)

// Solve dispatches to the named algorithm through the protocol registry,
// normalising the per-algorithm result types to *Result. It is the entry
// point of both the serving layer (internal/server) and cmd/maxis. Any solver
// registered with protocol.Register — including ones registered outside
// this package — is resolvable here without edits.
//
// eps is consumed by the boosted pipelines (theorem1/2/3/5) and ignored by
// the rest; alpha is the arboricity bound of theorem3 (0 selects the
// degeneracy-based Theorem3Auto).
// The name "auto" resolves through the planner layer (internal/plan) with
// an unlimited budget — the best-guarantee registered solver for this
// instance. Callers with a latency budget plan explicitly (plan.For) and
// pass the resolved name.
func Solve(name string, g *graph.Graph, eps float64, alpha int, cfg Config) (*Result, error) {
	if name == plan.Auto {
		d, err := plan.For(g, protocol.Params{Eps: eps, Alpha: alpha}, plan.Budget{}, cfg.MIS)
		if err != nil {
			return nil, fmt.Errorf("maxis: %w", err)
		}
		name = d.Alg
	}
	solver, err := protocol.SolverByName(name)
	if err != nil {
		return nil, fmt.Errorf("maxis: %w", err)
	}
	p, err := solver.Normalize(protocol.Params{Eps: eps, Alpha: alpha})
	if err != nil {
		return nil, fmt.Errorf("maxis: %s: %w", name, err)
	}
	return solver.Run(g, p, cfg)
}

// GuaranteeString renders the named solver's approximation guarantee for a
// completed run (empty when the solver has none or the name is unknown).
func GuaranteeString(name string, g *graph.Graph, eps float64, alpha int, res *Result) string {
	solver, err := protocol.SolverByName(name)
	if err != nil {
		return ""
	}
	p, err := solver.Normalize(protocol.Params{Eps: eps, Alpha: alpha})
	if err != nil {
		return ""
	}
	return solver.Guarantee(g, p, res)
}

// AlgorithmNames lists the names Solve accepts (every registered solver),
// sorted.
func AlgorithmNames() []string {
	return protocol.Names(protocol.KindSolver)
}
