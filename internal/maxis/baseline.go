package maxis

import (
	"fmt"
	"math/bits"

	"distmwis/internal/graph"
)

// BarYehuda reimplements the prior state of the art the paper improves on:
// the Δ-approximation of Bar-Yehuda, Censor-Hillel, Ghaffari and
// Schwartzman [8] (PODC 2017), which runs in O(MIS(n,Δ) · log W) rounds.
//
// The algorithm is the local-ratio / MIS scheme of [8] organised by weight
// scales. For j = ⌊log₂ W⌋ down to 0, W the bound every node is told:
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
//
// It is the weight-scale loop the local-ratio family shares (localRatioRun)
// on the unquantised weights.
func BarYehuda(g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	if minWeight(g) < 0 {
		return nil, fmt.Errorf("maxis: BarYehuda requires non-negative weights")
	}
	res, err := localRatioRun(g, g.Weights(), cfg.MaxWeight, 1, cfg, "bar-yehuda", "scale", map[string]float64{
		"log_w": float64(bits.Len64(uint64(cfg.MaxWeight))),
	})
	if err != nil {
		return nil, err
	}
	res.Extra["scales"] = res.Extra["phases"]
	return res, nil
}
