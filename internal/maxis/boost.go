package maxis

import (
	"fmt"
	"math"

	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// BoostResult extends Result with the local-ratio observables of
// Section 4.3.
type BoostResult struct {
	Result
	// StackValue is Σᵢ wᵢ(Iᵢ): the total residual weight of the stacked
	// independent sets at push time. Proposition 2 (the stack property)
	// guarantees Weight ≥ StackValue; it is verified at runtime.
	StackValue int64
	// Phases is the number of push phases t executed.
	Phases int
}

// Boost implements Theorem 10 (Algorithm 1): given a black-box inner
// algorithm A that finds an independent set of weight ≥ w(V)/(c·Δ), it
// produces a (1+ε)Δ-approximation in t = ⌈c/ε⌉ phases.
//
// Stage 1 (push): run A on the residual positive-weight graph, push the
// returned set Iᵢ, and reduce weights by w_{i+1}(v) = wᵢ(v) − wᵢ(N⁺(v)∩Iᵢ)
// (members drop to zero, neighbours lose the member's weight). Stage 2
// (pop): walk the stack in reverse, greedily adding nodes with no neighbour
// already chosen.
//
// By Corollary 1 the same run also guarantees weight ≥ w(V)/((1+ε)(Δ+1)).
func Boost(g *graph.Graph, eps float64, inner Inner, cfg Config) (*BoostResult, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("maxis: Boost needs ε > 0, got %v", eps)
	}
	cfg, scratch := cfg.Normalized(g).WithScratch()
	defer scratch.Release()
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	set, stackValue, phases, err := boostRun(g, eps, inner, cfg, seeds, &acc)
	if err != nil {
		return nil, err
	}
	res, err := finish(g, set, cfg, acc, "boost("+inner.Name()+")", map[string]float64{
		"stack_value": float64(stackValue),
		"phases":      float64(phases),
	})
	if err != nil {
		return nil, err
	}
	return &BoostResult{Result: *res, StackValue: stackValue, Phases: phases}, nil
}

// boostRun is the reusable core of Algorithm 1, shared with Algorithm 6
// (which boosts on its bounded-degree subgraphs). It runs the t push
// phases and pops the stack. Phase i draws the i-th seed of seeds and
// hands the inner algorithm a sequence of its own rooted there, so how
// many seeds an inner run consumes on its graph never shifts a later
// phase's seeds.
func boostRun(g *graph.Graph, eps float64, inner Inner, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) ([]bool, int64, int, error) {
	t := int(math.Ceil(float64(inner.FactorC()) / eps))
	cur := g.Weights()
	stack := lrStack{g: g, acc: acc, unit: 1}
	active := make([]bool, g.N()) // reused across phases; fully rewritten below
	for i := 1; i <= t; i++ {
		phaseSeeds := protocol.NewSeedSeq(seeds.Next())
		anyActive := false
		for v := range active {
			active[v] = cur[v] > 0
			anyActive = anyActive || active[v]
		}
		if !anyActive {
			break
		}
		// The residual graph carries the residual weights. Push phases
		// share the unindexed "push" label so a Timeline aggregates all t
		// of them into one stage (the per-round records still separate
		// them by run index).
		set, err := dist.RunOnInduced(g, active, cur, cfg.Scratch(), acc, func(sub *graph.Graph) ([]bool, error) {
			return inner.Run(sub, cfg.Phase("push"), phaseSeeds, acc)
		})
		if err != nil {
			return nil, 0, 0, fmt.Errorf("maxis: boost phase %d: %w", i, err)
		}
		if !g.IsIndependentSet(set) {
			return nil, 0, 0, fmt.Errorf("maxis: boost phase %d: inner %s returned dependent set", i, inner.Name())
		}
		stack.push(cur, set)
	}
	set, err := stack.pop()
	if err != nil {
		return nil, 0, 0, err
	}
	return set, stack.value, len(stack.sets), nil
}

// lrStack is the local-ratio stack of Algorithms 1 and 6 and of the
// Bar-Yehuda et al. family (localRatioRun): push records a phase's set
// and reduces the residual weights, pop greedily unwinds the stack into
// the answer and checks Proposition 2 on it.
type lrStack struct {
	g   *graph.Graph
	acc *dist.Accumulator
	// unit scales residual weights back to g's weights (LocalRatioEps
	// quantises them; 1 elsewhere).
	unit int64
	sets [][]bool
	// value is Σᵢ wᵢ(Iᵢ)·unit, the residual value of the pushed sets.
	value int64
}

// push adds set's residual value to the stack, pushes set and performs
// w_{i+1}(v) = wᵢ(v) − wᵢ(N⁺(v) ∩ Iᵢ) on cur in place. One round is
// charged for members to announce their residual weight to neighbours.
// Non-members read only members' weights, which stay wᵢ until the second
// pass zeroes them (a member's reduction is its own weight).
func (s *lrStack) push(cur []int64, set []bool) {
	for v, in := range set {
		if in {
			s.value += cur[v] * s.unit
		}
	}
	s.sets = append(s.sets, set)
	for v, in := range set {
		if in {
			continue
		}
		for _, u := range s.g.Neighbors(v) {
			if set[u] {
				cur[v] -= cur[u]
			}
		}
	}
	for v, in := range set {
		if in {
			cur[v] = 0
		}
	}
	s.acc.AddRounds(1)
}

// pop is the greedy reverse pop (stage 2 of Algorithms 1 and 6): iterate
// the pushed sets from last to first, adding each node whose
// neighbourhood is still untouched. One round per popped set is charged
// for the membership exchange. The result is always independent, and
// Proposition 2 (the stack property) guarantees w(I) ≥ Σᵢ wᵢ(Iᵢ); a
// violation means the local-ratio machinery is broken, so it fails loudly.
func (s *lrStack) pop() ([]bool, error) {
	n := s.g.N()
	out := make([]bool, n)
	blocked := make([]bool, n)
	for i := len(s.sets) - 1; i >= 0; i-- {
		for v, in := range s.sets[i] {
			if in && !blocked[v] {
				out[v] = true
				for _, u := range s.g.Neighbors(v) {
					blocked[u] = true
				}
			}
		}
		s.acc.AddRounds(1)
	}
	if w := s.g.SetWeight(out); w < s.value {
		return nil, fmt.Errorf("maxis: stack property violated: w(I)=%d < stack value %d (bug)", w, s.value)
	}
	return out, nil
}

// Theorem1 is the deterministic-capable pipeline of Theorem 1:
// Boost∘GoodNodes, giving a (1+ε)Δ-approximation in O(MIS(n,Δ)/ε) rounds.
// Determinism is inherited from the MIS black box in cfg.MIS.
func Theorem1(g *graph.Graph, eps float64, cfg Config) (*BoostResult, error) {
	return Boost(g, eps, goodNodesInner{}, cfg)
}

// Theorem2 is the randomized pipeline of Theorem 2: Boost∘Sparsified,
// giving a (1+ε)Δ-approximation with high probability in
// poly(log log n)/ε-style rounds (the MIS black box only ever runs on
// O(log n)-degree sparsified subgraphs).
func Theorem2(g *graph.Graph, eps float64, cfg Config) (*BoostResult, error) {
	return Boost(g, eps, sparsifiedInner{}, cfg)
}
