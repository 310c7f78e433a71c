// Package plan is the budget-aware algorithm planner: given an instance
// profile and a work budget, it picks the strongest registered solver
// whose predicted cost fits. It is the single resolution point for the
// "auto" algorithm name — maxis.Solve, the server's DeadlineMS path and the
// cluster coordinator's per-part fan-out all delegate here instead of
// hard-coding an algorithm each.
//
// The cost model is deliberately simple and fully deterministic: every
// solver's registered Meta predicts a theory-faithful round budget for the
// profile (the same Budget* bounds the experiment tables print), one round
// costs n+2m+1 work units (message handlers plus directed deliveries), and
// a latency budget converts to work units at a calibratable ops/ms rate.
// Determinism matters beyond taste — the server journal replays requests
// by re-planning them, so Choose must be a pure function of its inputs.
package plan

import (
	"fmt"

	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// Auto is the algorithm name every entry point resolves through Choose.
const Auto = "auto"

// DefaultOpsPerMS is the default work-unit throughput used to convert a
// millisecond deadline into a work budget. It is deliberately conservative
// (the single-threaded simulator sustains 100k–500k unit ops/ms on
// commodity hardware) so planned solves finish inside their deadline with
// slack for queueing; cmd/maxisd -plan-ops-per-ms recalibrates it.
const DefaultOpsPerMS = 50_000

// Budget bounds what a planned solve may cost. The zero value is
// unlimited: Choose then simply returns the best-guarantee solver.
type Budget struct {
	// WorkUnits caps predicted work (rounds × (n+2m+1)); 0 = unlimited.
	WorkUnits int64
}

// ForDeadline converts a request deadline into a work budget at opsPerMS
// (0 selects DefaultOpsPerMS). Non-positive deadlines are unlimited.
func ForDeadline(deadlineMS, opsPerMS int64) Budget {
	if deadlineMS <= 0 {
		return Budget{}
	}
	if opsPerMS <= 0 {
		opsPerMS = DefaultOpsPerMS
	}
	return Budget{WorkUnits: deadlineMS * opsPerMS}
}

// Request is one planning question: which solver for this profile, these
// parameters, this budget?
type Request struct {
	Profile protocol.Profile
	Params  protocol.Params
	Budget  Budget
	// MIS is the black box the cost model budgets MIS phases with; nil
	// selects the registry default (luby).
	MIS protocol.MIS
	// AllowLocal admits LOCAL-model solvers (messages beyond B bits);
	// off by default since served solves promise CONGEST executions.
	AllowLocal bool
	// RequireDeterministic restricts to solvers that draw no randomness of
	// their own (seed-free cache keys, reproducible degraded answers).
	RequireDeterministic bool
}

// Decision is a planning answer. Alg is always a registered solver name;
// Fits reports whether its predicted work met the budget (when nothing
// fits, the cheapest candidate is chosen and Fits is false — an answer
// with a guarantee still beats no answer).
type Decision struct {
	// Alg is the chosen solver's registry name.
	Alg string
	// Ratio is the chosen solver's guarantee family (Meta.Ratio).
	Ratio string
	// Score is the planner's quality score for this instance (lower is
	// better; approximately the approximation factor).
	Score float64
	// Rounds and Work are the predicted cost on this profile.
	Rounds int
	Work   int64
	// Fits reports the predicted work met the budget.
	Fits bool
}

// String renders the decision for logs and CLI output.
func (d Decision) String() string {
	fit := "fits"
	if !d.Fits {
		fit = "over budget (cheapest)"
	}
	return fmt.Sprintf("%s (ratio %s, score %.1f, ~%d rounds, ~%d work units, %s)",
		d.Alg, d.Ratio, d.Score, d.Rounds, d.Work, fit)
}

// candidates enumerates the admissible solvers for req, each with its
// predicted cost, in registry name order (sorted — this plus the deterministic tie-breaks below makes
// Choose a pure function).
func candidates(req Request) []Decision {
	m := req.MIS
	if m == nil {
		m = protocol.DefaultMIS()
	}
	var out []Decision
	for _, s := range protocol.Solvers() {
		meta := s.Meta()
		if meta.Score == nil || meta.Rounds == nil {
			continue // opted out of planning
		}
		if meta.Local && !req.AllowLocal {
			continue
		}
		if meta.UnitWeightsOnly && !req.Profile.UnitWeights {
			continue
		}
		if req.RequireDeterministic && !meta.Deterministic {
			continue
		}
		params, err := s.Normalize(req.Params)
		if err != nil {
			continue // parameters unusable for this solver (e.g. ε ≥ 1)
		}
		rounds := meta.Rounds(req.Profile, params, m)
		if rounds <= 0 {
			continue
		}
		work := int64(rounds) * int64(req.Profile.N+2*req.Profile.M+1)
		out = append(out, Decision{
			Alg:    s.Name(),
			Ratio:  meta.Ratio,
			Score:  meta.Score(req.Profile, params),
			Rounds: rounds,
			Work:   work,
			Fits:   req.Budget.WorkUnits <= 0 || work <= req.Budget.WorkUnits,
		})
	}
	return out
}

// Choose picks the best-guarantee solver whose predicted work fits the
// budget: lowest score, ties broken by lower predicted work, then name.
// When nothing fits, it returns the cheapest candidate (Fits false) — the
// degraded tier's "some guaranteed answer now" contract. It errors only
// when no registered solver is admissible at all.
func Choose(req Request) (Decision, error) {
	cands := candidates(req)
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf("plan: no admissible solver for profile n=%d Δ=%d (unit=%t)",
			req.Profile.N, req.Profile.MaxDegree, req.Profile.UnitWeights)
	}
	var best, cheapest *Decision
	for i := range cands {
		c := &cands[i]
		if cheapest == nil || c.Work < cheapest.Work {
			cheapest = c
		}
		if !c.Fits {
			continue
		}
		if best == nil || c.Score < best.Score || (c.Score == best.Score && c.Work < best.Work) {
			best = c
		}
	}
	if best == nil {
		return *cheapest, nil
	}
	return *best, nil
}

// For profiles g and plans in one call — the convenience entry the solve
// paths use.
func For(g *graph.Graph, params protocol.Params, b Budget, m protocol.MIS) (Decision, error) {
	return Choose(Request{Profile: protocol.ProfileOf(g), Params: params, Budget: b, MIS: m})
}
