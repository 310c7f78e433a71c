package protocol

import (
	"math/bits"

	"distmwis/internal/graph"
)

// Profile summarises one problem instance for planning: every input the
// registered cost/guarantee metadata may depend on. It is derived once per
// request (ProfileOf) and shared across all candidate solvers, so the
// planner's comparison is apples-to-apples by construction.
type Profile struct {
	// N and M are the node and edge counts.
	N int
	// M is the undirected edge count.
	M int
	// MaxDegree is Δ.
	MaxDegree int
	// Degeneracy is the graph's degeneracy d — the standard arboricity
	// proxy (α ≤ d ≤ 2α−1) used by the arboricity-parameterised solvers.
	Degeneracy int
	// LogW is ⌈log₂(W+1)⌉ for the maximum node weight W (0 for empty or
	// zero-weight graphs); the scale-based pipelines pay a factor of it.
	LogW int
	// UnitWeights reports every node weight is exactly 1, the precondition
	// of the unweighted-only solvers (theorem5, ranking).
	UnitWeights bool
}

// ProfileOf derives the planning profile of g. Cost is one O(n+m) pass
// (dominated by the degeneracy ordering), comparable to the canonical
// hashing every served request already performs.
func ProfileOf(g *graph.Graph) Profile {
	d, _ := g.Degeneracy()
	maxW := g.MaxWeight()
	if maxW < 0 {
		maxW = 0
	}
	return Profile{
		N:           g.N(),
		M:           g.M(),
		MaxDegree:   g.MaxDegree(),
		Degeneracy:  d,
		LogW:        bits.Len64(uint64(maxW)),
		UnitWeights: g.IsUnitWeight(),
	}
}

// Meta is a solver's cost/guarantee metadata — the contract the planner
// layer (internal/plan) selects algorithms by. Every registered Solver
// carries one; the zero value declares "no prediction available" and makes
// the solver invisible to the planner (still directly addressable by name).
type Meta struct {
	// Ratio names the guarantee family for humans ("Δ", "(1+ε)Δ", …); the
	// per-run rendering stays with Solver.Guarantee.
	Ratio string
	// Score returns the planner's comparable quality score for an
	// instance: approximately the approximation factor, inflated where the
	// guarantee is weaker than w.h.p. (expectation-only, unspecified
	// constants). Lower is better. E21 backs the inflation constants with
	// measured retention numbers.
	Score func(p Profile, params Params) float64
	// Rounds predicts the theory-faithful round budget of one run with MIS
	// black box m — the same a-priori bounds the Budget* helpers compute
	// for the experiment tables, evaluated on the profile. MIS-free
	// algorithms ignore m. Must be positive for planner-visible solvers.
	Rounds func(p Profile, params Params, m MIS) int
	// Deterministic reports the pipeline draws no randomness of its own:
	// paired with a deterministic MIS box (greedy-id) the output is a
	// function of the graph alone, which makes cache keys seed-free and
	// degraded answers reproducible.
	Deterministic bool
	// ExpectationOnly marks guarantees that hold in expectation but not
	// w.h.p. (the paper's Section 1 variance caveat).
	ExpectationOnly bool
	// UnitWeightsOnly restricts the solver to unweighted graphs; the
	// planner skips it when the profile is weighted.
	UnitWeightsOnly bool
	// Local marks LOCAL-model pipelines whose messages exceed CONGEST
	// bandwidth; the planner only considers them when asked to.
	Local bool
}
