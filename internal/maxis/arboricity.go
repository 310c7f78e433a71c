package maxis

import (
	"fmt"
	"math/bits"

	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// ArboricityResult extends Result with the Algorithm 6 observables.
type ArboricityResult struct {
	Result
	// Phases is the number of push phases executed (≤ log n + 1 by
	// Proposition 5).
	Phases int
	// StackValue is Σᵢ w'ᵢ(Iᵢ), the Proposition 2 certificate.
	StackValue int64
}

// Arboricity implements Theorem 12 (Algorithm 6): given a (1+ε)Δ-approx
// black box A (the inner argument, boosted internally), it returns an
// 8(1+ε)α-approximation for graphs of arboricity ≤ alpha in O(T·log n)
// rounds.
//
// Each of the ≤ log n + 1 phases runs A on the subgraph induced by the
// active nodes of degree at most 4α, pushes the resulting set, zeroes every
// ≤4α-degree node's weight, and reduces neighbours of the set as in the
// local-ratio scheme. Nash–Williams guarantees at least half of any
// subgraph of arboricity ≤ α has degree ≤ 4α, so the active set at least
// halves every phase (Proposition 5) — this is checked at runtime and a
// violation reports that the supplied alpha is below the true arboricity.
//
// The paper assumes α is known to the nodes; pass alpha ≤ 0 to use the
// degeneracy upper bound computed from the graph.
func Arboricity(g *graph.Graph, alpha int, eps float64, inner Inner, cfg Config) (*ArboricityResult, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("maxis: Arboricity needs ε > 0, got %v", eps)
	}
	cfg = cfg.Normalized(g)
	if alpha <= 0 {
		alpha = g.ArboricityUpperBound()
		if alpha == 0 {
			alpha = 1
		}
	}
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	n := g.N()
	cur := g.Weights()
	maxPhases := bits.Len(uint(cfg.NUpper)) + 2 // log n + 1 plus slack for the V1 phase
	var stack [][]bool
	var stackValue int64
	phases := 0

	for i := 1; i <= maxPhases; i++ {
		// Each phase boosts on a seed sequence of its own (see boostPush).
		phaseSeeds := protocol.NewSeedSeq(seeds.Next())
		active := make([]bool, n)
		activeN := 0
		for v := 0; v < n; v++ {
			if cur[v] > 0 {
				active[v] = true
				activeN++
			}
		}
		if activeN == 0 {
			break
		}
		sub := g.Induce(active)
		acc.AddRounds(1) // active flags
		// V4α: active nodes whose degree within the active subgraph is ≤4α.
		lowDeg := make([]bool, sub.G.N())
		lowCount := 0
		for j := 0; j < sub.G.N(); j++ {
			if sub.G.Degree(j) <= 4*alpha {
				lowDeg[j] = true
				lowCount++
			}
		}
		acc.AddRounds(1) // degree exchange within the active subgraph
		if 2*lowCount < activeN {
			return nil, fmt.Errorf("maxis: only %d of %d active nodes have degree ≤ 4α=%d; alpha=%d is below the true arboricity", lowCount, activeN, 4*alpha, alpha)
		}
		low := sub.G.Induce(lowDeg)
		acc.AddRounds(1)
		subW := make([]int64, low.G.N())
		for j, pv := range low.ToParent {
			subW[j] = cur[sub.ToParent[pv]]
		}
		inSet, _, _, err := boostRun(low.G.WithWeights(subW), eps, inner, cfg, phaseSeeds, &acc)
		if err != nil {
			return nil, fmt.Errorf("maxis: arboricity phase %d: %w", i, err)
		}
		set := sub.LiftSet(low.LiftSet(inSet))
		if !g.IsIndependentSet(set) {
			return nil, fmt.Errorf("maxis: arboricity phase %d: inner returned dependent set", i)
		}
		for v := 0; v < n; v++ {
			if set[v] {
				stackValue += cur[v]
			}
		}
		stack = append(stack, set)
		phases++
		// Weight update (Algorithm 6): every ≤4α-degree active node drops to
		// zero; other nodes lose the weight of their set neighbours.
		reduce := make([]int64, n)
		zero := make([]bool, n)
		for j := 0; j < sub.G.N(); j++ {
			if lowDeg[j] {
				zero[sub.ToParent[j]] = true
			}
		}
		for v := 0; v < n; v++ {
			if zero[v] {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if set[u] {
					reduce[v] += cur[u]
				}
			}
		}
		for v := 0; v < n; v++ {
			if zero[v] {
				cur[v] = 0
			} else {
				cur[v] -= reduce[v]
			}
		}
		acc.AddRounds(1) // members announce residual weight
	}
	// Any active node left means the halving argument failed, which cannot
	// happen when alpha is a true arboricity bound.
	for v := 0; v < n; v++ {
		if cur[v] > 0 {
			return nil, fmt.Errorf("maxis: active nodes remain after %d phases; alpha=%d is below the true arboricity", maxPhases, alpha)
		}
	}
	set := PopStack(g, stack, &acc)
	res, err := finish(g, set, cfg, acc, "arboricity", map[string]float64{
		"alpha":       float64(alpha),
		"phases":      float64(phases),
		"stack_value": float64(stackValue),
		"guarantee":   8 * (1 + eps) * float64(alpha),
	})
	if err != nil {
		return nil, err
	}
	if res.Weight < stackValue {
		return nil, fmt.Errorf("maxis: stack property violated in arboricity run (bug)")
	}
	return &ArboricityResult{Result: *res, Phases: phases, StackValue: stackValue}, nil
}

// Theorem3 is the paper's headline low-arboricity result: Arboricity with
// the Theorem 2 (sparsified) pipeline as the inner (1+ε)Δ-approximation,
// giving an 8(1+ε)α-approximation in O(log n · poly log log n / ε) rounds.
func Theorem3(g *graph.Graph, alpha int, eps float64, cfg Config) (*ArboricityResult, error) {
	return Arboricity(g, alpha, eps, sparsifiedInner{}, cfg)
}

// Guarantee8Alpha returns the Theorem 3 approximation bound 8(1+ε)α as a
// float for experiment tables.
func Guarantee8Alpha(alpha int, eps float64) float64 {
	return 8 * (1 + eps) * float64(alpha)
}

// GuaranteeDelta returns the Theorem 1/2 bound (1+ε)Δ.
func GuaranteeDelta(delta int, eps float64) float64 {
	return (1 + eps) * float64(delta)
}

// GuaranteeCorollary1 returns the Corollary 1 lower bound
// w(V)/((1+ε)(Δ+1)).
func GuaranteeCorollary1(totalWeight int64, delta int, eps float64) float64 {
	return float64(totalWeight) / ((1 + eps) * float64(delta+1))
}
