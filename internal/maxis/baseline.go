package maxis

import (
	"fmt"
	"math/bits"

	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// BarYehuda reimplements the prior state of the art the paper improves on:
// the Δ-approximation of Bar-Yehuda, Censor-Hillel, Ghaffari and
// Schwartzman [8] (PODC 2017), which runs in O(MIS(n,Δ) · log W) rounds.
//
// The algorithm is the local-ratio / MIS scheme of [8] organised by weight
// scales. For j = ⌈log₂ W⌉ down to 0:
//
//   - run the black-box MIS on the subgraph induced by nodes whose current
//     weight is at least 2^j;
//   - push the MIS I_j and apply the Algorithm 1 weight reduction
//     w'(v) = w(v) − w(N⁺(v) ∩ I_j).
//
// Maximality forces every scale-j node into I_j or adjacent to a member of
// weight ≥ 2^j, so the maximum weight at least halves per scale: after the
// j = 0 scale all (integer) weights are ≤ 0 and the stack pops into a
// Δ-approximation by the Theorem 6 local-ratio argument (each I_j is a
// Δ-approximation with respect to its reduced weight function, exactly as
// in Proposition 1).
//
// The log W factor in the round count — W can be poly(n) — is precisely the
// overhead Theorems 1 and 2 remove; experiments E4/E5 measure it.
func BarYehuda(g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	n := g.N()
	maxW := g.MaxWeight()
	if maxW < 0 {
		return nil, fmt.Errorf("maxis: BarYehuda requires non-negative weights")
	}
	cur := g.Weights()
	var stack [][]bool
	var stackValue int64
	scales := 0

	active := make([]bool, n) // reused across scales; fully rewritten below
	for j := bits.Len64(uint64(maxW)); j >= 0 && maxW > 0; j-- {
		threshold := int64(1) << uint(j)
		anyActive := false
		for v := 0; v < n; v++ {
			active[v] = cur[v] >= threshold
			anyActive = anyActive || active[v]
		}
		if !anyActive {
			continue
		}
		scales++
		// All ⌈log W⌉ scales share the "scale" label, mirroring boost's
		// unindexed "push".
		set, _, err := dist.RunOnInduced(g, active, cfg.MISAlg().Run, &acc, cfg.Phase("scale").Opts(seeds.Next())...)
		if err != nil {
			return nil, fmt.Errorf("maxis: baseline scale 2^%d: %w", j, err)
		}
		for v := 0; v < n; v++ {
			if set[v] {
				stackValue += cur[v]
			}
		}
		stack = append(stack, set)
		applyReduction(g, cur, set)
		acc.AddRounds(1)
	}
	// The residual-weight invariant relies on MIS maximality, which fault
	// injection legitimately breaks (a truncated MIS phase can leave heavy
	// nodes uncovered); without faults a violation is a real bug.
	if !cfg.Faults.Enabled() {
		for v := 0; v < n; v++ {
			if cur[v] > 0 {
				return nil, fmt.Errorf("maxis: baseline left positive weight at node %d (bug)", v)
			}
		}
	}
	set := PopStack(g, stack, &acc)
	res, err := finish(g, set, cfg, acc, "bar-yehuda", map[string]float64{
		"scales":      float64(scales),
		"stack_value": float64(stackValue),
		"log_w":       float64(bits.Len64(uint64(maxW))),
	})
	if err != nil {
		return nil, err
	}
	if res.Weight < stackValue {
		return nil, fmt.Errorf("maxis: stack property violated in baseline (bug)")
	}
	return res, nil
}
