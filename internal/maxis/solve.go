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
// the rest; alpha is the arboricity bound of theorem3 (0 selects g's
// degeneracy bound).
// The name "auto" resolves through the planner layer (internal/plan) with
// an unlimited budget — the best-guarantee registered solver for this
// instance. Callers with a latency budget plan explicitly (plan.For) and
// pass the resolved name.
func Solve(name string, g *graph.Graph, eps float64, alpha int, cfg Config) (*Result, error) {
	name, alpha, cfg, err := Resolve(name, g, eps, alpha, cfg)
	if err != nil {
		return nil, err
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

// Resolve fixes on the top-level graph g the choices of a solve that read
// more than a node's neighbourhood: "auto" becomes the planner's pick,
// theorem3's alpha 0 becomes g's degeneracy bound, and cfg gets the bounds
// n, W and max ID (Config.Normalized). Under the resolved values a run
// over any union of g's components gives each of them the set Solve gives
// it; resolving again on such a union changes nothing.
func Resolve(name string, g *graph.Graph, eps float64, alpha int, cfg Config) (string, int, Config, error) {
	if name == plan.Auto {
		d, err := plan.For(g, protocol.Params{Eps: eps, Alpha: alpha}, plan.Budget{}, cfg.MIS)
		if err != nil {
			return "", 0, cfg, fmt.Errorf("maxis: %w", err)
		}
		name = d.Alg
	}
	if name == "theorem3" && alpha <= 0 {
		alpha = max(g.ArboricityUpperBound(), 1)
	}
	return name, alpha, cfg.Normalized(g), nil
}

// ComponentScope names what Resolve fixes on g for a solve: the algorithm,
// α and the told bounds. A component's answer is a function of its
// content, the solve's own parameters and this value, so a ComponentCache
// for SolveComponents over g's components keys its entries by all three.
func ComponentScope(name string, g *graph.Graph, eps float64, alpha int, cfg Config) (string, error) {
	name, alpha, cfg, err := Resolve(name, g, eps, alpha, cfg)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|alpha=%d|%s", name, alpha, cfg.Bounds()), nil
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
