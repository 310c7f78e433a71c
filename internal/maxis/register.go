package maxis

import (
	"fmt"
	"math"
	"math/bits"

	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// solverEntry adapts one of this package's algorithm pipelines to the
// protocol registry's Solver interface. Registration in init below is the
// single step that makes an algorithm resolvable by Solve, listed in
// AlgorithmNames, accepted by the cmd/maxis flag surface and the maxisd
// JSON API, covered by the registry-driven parity suite, and — through its
// meta block — eligible for planner selection under alg=auto.
type solverEntry struct {
	name      string
	describe  string
	normalize func(p protocol.Params) (protocol.Params, error)
	run       func(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error)
	guarantee func(g *graph.Graph, p protocol.Params, res *Result) string
	meta      protocol.Meta
}

func (e *solverEntry) Name() string        { return e.name }
func (e *solverEntry) Kind() protocol.Kind { return protocol.KindSolver }
func (e *solverEntry) Describe() string    { return e.describe }
func (e *solverEntry) Meta() protocol.Meta { return e.meta }

func (e *solverEntry) Normalize(p protocol.Params) (protocol.Params, error) {
	if e.normalize == nil {
		return p, nil
	}
	return e.normalize(p)
}

// Run runs the pipeline with one scratch for all of its phases.
func (e *solverEntry) Run(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error) {
	cfg, scratch := cfg.WithScratch()
	defer scratch.Release()
	return e.run(g, p, cfg)
}

func (e *solverEntry) Guarantee(g *graph.Graph, p protocol.Params, res *Result) string {
	if e.guarantee == nil {
		return ""
	}
	return e.guarantee(g, p, res)
}

var _ protocol.Solver = (*solverEntry)(nil)

// needsEps rejects non-positive (or non-finite — NaN slips past every
// comparison) ε for the boosted pipelines.
func needsEps(name string) func(p protocol.Params) (protocol.Params, error) {
	return func(p protocol.Params) (protocol.Params, error) {
		if !(p.Eps > 0) || math.IsInf(p.Eps, 1) {
			return p, &protocol.ParamError{
				Param:  "eps",
				Detail: fmt.Sprintf("must be positive for %s, got %g", name, p.Eps),
			}
		}
		return p, nil
	}
}

// needsFractionalEps additionally rejects ε ≥ 1 for pipelines whose
// guarantee has a (1−ε) factor.
func needsFractionalEps(name string) func(p protocol.Params) (protocol.Params, error) {
	return func(p protocol.Params) (protocol.Params, error) {
		if !(p.Eps > 0) || p.Eps >= 1 {
			return p, &protocol.ParamError{
				Param:  "eps",
				Detail: fmt.Sprintf("must be in (0,1) for %s, got %g", name, p.Eps),
			}
		}
		return p, nil
	}
}

// delta1 clamps Δ to at least 1 so ratio scores on edgeless graphs stay
// comparable instead of collapsing to 0.
func delta1(d int) float64 {
	if d < 1 {
		return 1
	}
	return float64(d)
}

// theorem2DeltaH is the degree the Theorem 2 MIS black box actually sees:
// the sparsifier bound 4λ·log₂n at the default λ=2, never exceeding Δ.
func theorem2DeltaH(p protocol.Profile) int {
	dh := DeltaHBound(p.N, 2.0)
	if p.MaxDegree < dh {
		dh = p.MaxDegree
	}
	if dh < 1 {
		dh = 1
	}
	return dh
}

// alphaOf resolves the arboricity parameter of theorem3: the caller's
// explicit bound, else the profile's degeneracy (≥ α, ≤ 2α−1).
func alphaOf(p protocol.Profile, params protocol.Params) int {
	if params.Alpha > 0 {
		return params.Alpha
	}
	if p.Degeneracy > 0 {
		return p.Degeneracy
	}
	return 1
}

// The expectation-only score inflations below (×2.0 uniform-rank one-round,
// ×1.8 weighted one-round race, ×1.4 three-phase race) encode the measured
// retention gap between the in-expectation tiers and the w.h.p. tiers;
// experiment E21 is the evidence backing the ordering. The sparsified /
// ranking w.h.p. guarantees with unspecified constants score at their
// stated constant (8(Δ+1), matching Theorem 9/11's worst case).

func init() {
	protocol.Register(&solverEntry{
		name:     "goodnodes",
		describe: "O(Δ)-approximation via an MIS over the good nodes (Theorem 8)",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return GoodNodes(g, cfg)
		},
		guarantee: func(g *graph.Graph, _ protocol.Params, _ *Result) string {
			return fmt.Sprintf("w(I) ≥ w(V)/(4(Δ+1)) = %.1f",
				float64(g.TotalWeight())/(4*float64(g.MaxDegree()+1)))
		},
		meta: protocol.Meta{
			Ratio:         "4(Δ+1)",
			Deterministic: true,
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return 4 * (delta1(p.MaxDegree) + 1)
			},
			Rounds: func(p protocol.Profile, _ protocol.Params, m protocol.MIS) int {
				return BudgetGoodNodes(m, p.N, p.MaxDegree)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:     "sparsified",
		describe: "poly(log log n)-round O(Δ)-approximation via weighted sparsification (Theorem 9)",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return Sparsified(g, cfg)
		},
		guarantee: func(*graph.Graph, protocol.Params, *Result) string {
			return "w(I) = Ω(w(V)/Δ) w.h.p."
		},
		meta: protocol.Meta{
			Ratio: "O(Δ) w.h.p.",
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return 8 * (delta1(p.MaxDegree) + 1)
			},
			Rounds: func(p protocol.Profile, _ protocol.Params, m protocol.MIS) int {
				return BudgetSparsified(m, p.N, theorem2DeltaH(p))
			},
		},
	})
	protocol.Register(&solverEntry{
		name:      "theorem1",
		describe:  "(1+ε)Δ-approximation: Boost over GoodNodes (Theorem 1)",
		normalize: needsEps("theorem1"),
		run: func(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error) {
			res, err := Theorem1(g, p.Eps, cfg)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
		guarantee: func(g *graph.Graph, p protocol.Params, _ *Result) string {
			return fmt.Sprintf("(1+ε)Δ-approximation = %.1f", GuaranteeDelta(g.MaxDegree(), p.Eps))
		},
		meta: protocol.Meta{
			Ratio:         "(1+ε)Δ",
			Deterministic: true,
			Score: func(p protocol.Profile, params protocol.Params) float64 {
				return (1 + params.Eps) * delta1(p.MaxDegree)
			},
			Rounds: func(p protocol.Profile, params protocol.Params, m protocol.MIS) int {
				return BudgetTheorem1(m, p.N, p.MaxDegree, params.Eps)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:      "theorem2",
		describe:  "(1+ε)Δ-approximation in poly(log log n)·O(1/ε) rounds: Boost over Sparsified (Theorem 2)",
		normalize: needsEps("theorem2"),
		run: func(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error) {
			res, err := Theorem2(g, p.Eps, cfg)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
		guarantee: func(g *graph.Graph, p protocol.Params, _ *Result) string {
			return fmt.Sprintf("(1+ε)Δ-approximation = %.1f w.h.p.", GuaranteeDelta(g.MaxDegree(), p.Eps))
		},
		meta: protocol.Meta{
			Ratio: "(1+ε)Δ w.h.p.",
			Score: func(p protocol.Profile, params protocol.Params) float64 {
				return (1 + params.Eps) * delta1(p.MaxDegree)
			},
			Rounds: func(p protocol.Profile, params protocol.Params, m protocol.MIS) int {
				return BudgetTheorem2(m, p.N, theorem2DeltaH(p), params.Eps)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:      "theorem3",
		describe:  "8(1+ε)α-approximation for arboricity-α graphs (Theorem 3; alpha 0 = degeneracy estimator)",
		normalize: needsEps("theorem3"),
		run: func(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error) {
			// Alpha <= 0 falls back to the degeneracy bound inside
			// Arboricity, matching the cmd/maxis -alpha default.
			res, err := Theorem3(g, p.Alpha, p.Eps, cfg)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
		guarantee: func(_ *graph.Graph, _ protocol.Params, res *Result) string {
			return fmt.Sprintf("8(1+ε)α-approximation = %.1f w.h.p.", res.Extra["guarantee"])
		},
		meta: protocol.Meta{
			Ratio: "8(1+ε)α",
			Score: func(p protocol.Profile, params protocol.Params) float64 {
				return 8 * (1 + params.Eps) * float64(alphaOf(p, params))
			},
			Rounds: func(p protocol.Profile, params protocol.Params, m protocol.MIS) int {
				return BudgetTheorem3(m, p.N, alphaOf(p, params), params.Eps)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:      "theorem5",
		describe:  "(1+ε)(Δ+1)-approximation for unweighted low-degree graphs: Boost over Ranking (Theorem 5)",
		normalize: needsEps("theorem5"),
		run: func(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error) {
			res, err := Theorem5(g, p.Eps, cfg)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
		guarantee: func(g *graph.Graph, p protocol.Params, _ *Result) string {
			return fmt.Sprintf("|I| ≥ n/((1+ε)(Δ+1)) = %.1f w.h.p.",
				float64(g.N())/((1+p.Eps)*float64(g.MaxDegree()+1)))
		},
		meta: protocol.Meta{
			Ratio:           "(1+ε)(Δ+1) w.h.p.",
			UnitWeightsOnly: true,
			Score: func(p protocol.Profile, params protocol.Params) float64 {
				return (1 + params.Eps) * (delta1(p.MaxDegree) + 1)
			},
			Rounds: func(p protocol.Profile, params protocol.Params, _ protocol.MIS) int {
				// Ranking at c=2 ships its rank in a handful of B-bit
				// chunks; 4 rounds per phase is its budget at the default
				// bandwidth.
				return BudgetTheorem5(params.Eps, 4)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:     "ranking",
		describe: "Boppana ranking with the martingale guarantee (Section 5)",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return Ranking(g, 2, cfg)
		},
		guarantee: func(g *graph.Graph, _ protocol.Params, _ *Result) string {
			return fmt.Sprintf("|I| ≥ n/(8(Δ+1)) = %.1f w.h.p.",
				float64(g.N())/(8*float64(g.MaxDegree()+1)))
		},
		meta: protocol.Meta{
			Ratio:           "8(Δ+1) w.h.p.",
			UnitWeightsOnly: true,
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return 8 * (delta1(p.MaxDegree) + 1)
			},
			Rounds: func(p protocol.Profile, _ protocol.Params, _ protocol.MIS) int {
				return 6 // ⌈rankBits/B⌉ shipping rounds + decide, c=2
			},
		},
	})
	protocol.Register(&solverEntry{
		name:     "oneround",
		describe: "one-round ranking baseline [17]; guarantee holds in expectation only",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return OneRound(g, cfg)
		},
		guarantee: func(g *graph.Graph, _ protocol.Params, _ *Result) string {
			return fmt.Sprintf("E[w(I)] ≥ w(V)/(Δ+1) = %.1f (expectation only)",
				float64(g.TotalWeight())/float64(g.MaxDegree()+1))
		},
		meta: protocol.Meta{
			Ratio:           "Δ+1 in expectation",
			ExpectationOnly: true,
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return 2.0 * (delta1(p.MaxDegree) + 1)
			},
			Rounds: func(protocol.Profile, protocol.Params, protocol.MIS) int {
				return 3 // ship the c=0 rank (≤2 chunks) + decide
			},
		},
	})
	protocol.Register(&solverEntry{
		name:     "baseline",
		describe: "Δ-approximation in O(MIS·log W) rounds (Bar-Yehuda et al. [8] baseline)",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return BarYehuda(g, cfg)
		},
		guarantee: func(g *graph.Graph, _ protocol.Params, _ *Result) string {
			return fmt.Sprintf("Δ-approximation = %d ([8] baseline)", g.MaxDegree())
		},
		meta: protocol.Meta{
			Ratio:         "Δ",
			Deterministic: true,
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return delta1(p.MaxDegree)
			},
			Rounds: func(p protocol.Profile, _ protocol.Params, m protocol.MIS) int {
				return BudgetBarYehudaLogW(m, p.N, p.MaxDegree, p.LogW)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:     "localratio",
		describe: "Δ-approximation in O(MIS·Δ) rounds: unscaled local-ratio (arXiv:1708.00276)",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return LocalRatio(g, cfg)
		},
		guarantee: func(g *graph.Graph, _ protocol.Params, _ *Result) string {
			return fmt.Sprintf("Δ-approximation = %d (local-ratio)", g.MaxDegree())
		},
		meta: protocol.Meta{
			Ratio:         "Δ",
			Deterministic: true,
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return delta1(p.MaxDegree)
			},
			Rounds: func(p protocol.Profile, _ protocol.Params, m protocol.MIS) int {
				return BudgetLocalRatio(m, p.N, p.MaxDegree)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:      "localratio-eps",
		describe:  "(1−ε)-scaled local-ratio Δ-approximation in O(MIS·log(n/ε)) rounds (arXiv:1708.00276)",
		normalize: needsFractionalEps("localratio-eps"),
		run: func(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error) {
			return LocalRatioEps(g, p.Eps, cfg)
		},
		guarantee: func(g *graph.Graph, p protocol.Params, _ *Result) string {
			return fmt.Sprintf("w(I) ≥ (1−ε)·OPT/Δ, ε=%g, Δ=%d", p.Eps, g.MaxDegree())
		},
		meta: protocol.Meta{
			Ratio:         "Δ/(1−ε)",
			Deterministic: true,
			Score: func(p protocol.Profile, params protocol.Params) float64 {
				return delta1(p.MaxDegree) / (1 - params.Eps)
			},
			Rounds: func(p protocol.Profile, params protocol.Params, m protocol.MIS) int {
				// Quantised weights fit in log₂(n/ε) bits, so the scale
				// loop pays that instead of log W.
				logQ := bits.Len64(uint64(math.Ceil(float64(p.N)/params.Eps))) + 1
				if p.LogW < logQ {
					logQ = p.LogW
				}
				return BudgetBarYehudaLogW(m, p.N, p.MaxDegree, logQ)
			},
		},
	})
	protocol.Register(&solverEntry{
		name:     "bhr-oneround",
		describe: "one-round weighted race (Boppana–Halldórsson–Rawitz, arXiv:1803.00786); expectation only",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return BHROneRound(g, cfg)
		},
		guarantee: func(g *graph.Graph, _ protocol.Params, _ *Result) string {
			return fmt.Sprintf("E[w(I)] ≥ w(V)/(Δ+1) = %.1f (weighted race, expectation only)",
				float64(g.TotalWeight())/float64(g.MaxDegree()+1))
		},
		meta: protocol.Meta{
			Ratio:           "Δ+1 in expectation",
			ExpectationOnly: true,
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return 1.8 * (delta1(p.MaxDegree) + 1)
			},
			Rounds: func(protocol.Profile, protocol.Params, protocol.MIS) int {
				return 3 // broadcast the key, decide, announce
			},
		},
	})
	protocol.Register(&solverEntry{
		name:     "bhr-fewround",
		describe: "few-round weighted race: repeated one-round races on the residual graph (arXiv:1803.00786)",
		run: func(g *graph.Graph, _ protocol.Params, cfg Config) (*Result, error) {
			return BHR(g, BHRFewRoundPhases, cfg)
		},
		guarantee: func(g *graph.Graph, _ protocol.Params, res *Result) string {
			return fmt.Sprintf("E[w(I)] ≥ w(V)/(Δ+1) = %.1f after %.0f races (expectation only)",
				float64(g.TotalWeight())/float64(g.MaxDegree()+1), res.Extra["phases"])
		},
		meta: protocol.Meta{
			Ratio:           "Δ+1 in expectation (improving per race)",
			ExpectationOnly: true,
			Score: func(p protocol.Profile, _ protocol.Params) float64 {
				return 1.4 * (delta1(p.MaxDegree) + 1)
			},
			Rounds: func(protocol.Profile, protocol.Params, protocol.MIS) int {
				return BHRFewRoundPhases * 4
			},
		},
	})
	protocol.Register(&solverEntry{
		name:      "localapprox",
		describe:  "(1+ε)-approximation in expectation via low-diameter decomposition (LOCAL model)",
		normalize: needsEps("localapprox"),
		run: func(g *graph.Graph, p protocol.Params, cfg Config) (*Result, error) {
			return LocalApprox(g, p.Eps, cfg)
		},
		guarantee: func(_ *graph.Graph, p protocol.Params, res *Result) string {
			if res.Extra["greedy_clusters"] > 0 {
				return fmt.Sprintf("(1+ε)-approximation in expectation voided: %.0f clusters fell back to greedy (LOCAL)",
					res.Extra["greedy_clusters"])
			}
			return fmt.Sprintf("(1+ε)-approximation = %.2f in expectation (LOCAL)", 1+p.Eps)
		},
		meta: protocol.Meta{
			Ratio:           "1+ε in expectation (LOCAL)",
			ExpectationOnly: true,
			Local:           true,
			Score: func(p protocol.Profile, params protocol.Params) float64 {
				return 1 + params.Eps
			},
			Rounds: func(p protocol.Profile, params protocol.Params, _ protocol.MIS) int {
				// 2·radius+2 with radius = O(log n/β), β = ε/(4Δ).
				logN := math.Log(math.Max(float64(p.N), 2))
				beta := params.Eps / (4 * delta1(p.MaxDegree))
				return 2*int(math.Ceil(logN/beta)) + 2
			},
		},
	})
}
