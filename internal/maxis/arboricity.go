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
	cfg, scratch := cfg.Normalized(g).WithScratch()
	defer scratch.Release()
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
	stack := lrStack{g: g, acc: &acc, unit: 1}
	low := make([]bool, n) // reused across phases; fully rewritten below

	for i := 1; i <= maxPhases; i++ {
		// Each phase boosts on a seed sequence of its own (see boostRun).
		phaseSeeds := protocol.NewSeedSeq(seeds.Next())
		// V4α: active (positive-residual) nodes with at most 4α active
		// neighbours.
		activeN, lowN := 0, 0
		for v := range low {
			low[v] = false
			if cur[v] <= 0 {
				continue
			}
			activeN++
			deg := 0
			for _, u := range g.Neighbors(v) {
				if cur[u] > 0 {
					deg++
				}
			}
			if deg <= 4*alpha {
				low[v] = true
				lowN++
			}
		}
		if activeN == 0 {
			break
		}
		acc.AddRounds(2) // active flags, then degrees within the active subgraph
		if 2*lowN < activeN {
			return nil, fmt.Errorf("maxis: only %d of %d active nodes have degree ≤ 4α=%d; alpha=%d is below the true arboricity", lowN, activeN, 4*alpha, alpha)
		}
		set, err := dist.RunOnInduced(g, low, cur, cfg.Scratch(), &acc, func(sub *graph.Graph) ([]bool, error) {
			set, _, _, err := boostRun(sub, eps, inner, cfg, phaseSeeds, &acc)
			return set, err
		})
		if err != nil {
			return nil, fmt.Errorf("maxis: arboricity phase %d: %w", i, err)
		}
		if !g.IsIndependentSet(set) {
			return nil, fmt.Errorf("maxis: arboricity phase %d: inner returned dependent set", i)
		}
		// Weight update (Algorithm 6): other nodes lose the weight of their
		// set neighbours (the push's reduction; every member is a ≤4α
		// node), and every ≤4α node drops to zero.
		stack.push(cur, set)
		for v, in := range low {
			if in {
				cur[v] = 0
			}
		}
	}
	// Any active node left means the halving argument failed, which cannot
	// happen when alpha is a true arboricity bound.
	for v := 0; v < n; v++ {
		if cur[v] > 0 {
			return nil, fmt.Errorf("maxis: active nodes remain after %d phases; alpha=%d is below the true arboricity", maxPhases, alpha)
		}
	}
	set, err := stack.pop()
	if err != nil {
		return nil, fmt.Errorf("maxis: arboricity: %w", err)
	}
	phases := len(stack.sets)
	res, err := finish(g, set, cfg, acc, "arboricity", map[string]float64{
		"alpha":       float64(alpha),
		"phases":      float64(phases),
		"stack_value": float64(stack.value),
		"guarantee":   8 * (1 + eps) * float64(alpha),
	})
	if err != nil {
		return nil, err
	}
	return &ArboricityResult{Result: *res, Phases: phases, StackValue: stack.value}, nil
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
