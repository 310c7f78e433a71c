package maxis

import (
	"fmt"
	"math"
	"math/bits"

	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
)

// This file ports the local-ratio Δ-approximation family of Bar-Yehuda,
// Censor-Hillel, Ghaffari and Schwartzman (arXiv:1708.00276) in its two
// round-complexity trade-offs:
//
//   - LocalRatio: the plain (unscaled) algorithm — MIS on the whole
//     positive-residual subgraph, push, reduce, repeat until no positive
//     residual remains. A Δ-approximation in at most Δ+1 MIS phases,
//     independent of W — the complement of baseline.go's O(MIS·log W)
//     weight-scale schedule, and the better choice when Δ < log W.
//   - LocalRatioEps: the (1−ε)-scaled variant — quantise the weights to
//     at most ⌈n/ε⌉ levels first, then run the weight-scale loop on the
//     quantised weights. A (1−ε)·OPT/Δ guarantee in O(MIS·log(n/ε))
//     rounds, independent of W and of Δ.
//
// Both reuse the applyReduction/PopStack machinery shared with baseline.go
// and boost.go, so the Proposition 2 stack property carries over verbatim.

// LocalRatio is the unscaled local-ratio Δ-approximation. Each phase runs
// the MIS black box on the subgraph induced by positive-residual nodes,
// pushes the result and applies the Algorithm 1 reduction
// w'(v) = w(v) − w(N⁺(v) ∩ I).
//
// Termination in ≤ Δ+1 phases: in every phase an active node v either
// joins the MIS (its residual is zeroed for good) or — by MIS maximality
// on the induced subgraph — is adjacent to a member u whose residual is
// zeroed for good. v can therefore stay active only while it has positive
// neighbours left, of which it has at most Δ; once they are exhausted,
// maximality forces v itself into the next MIS.
func LocalRatio(g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	if minWeight(g) < 0 {
		return nil, fmt.Errorf("maxis: LocalRatio requires non-negative weights")
	}
	return localRatioRun(g, g.Weights(), 1, cfg, "localratio", false, nil)
}

// LocalRatioEps is the (1±ε) variant: weights are divided by
// unit = max(1, ⌊ε·W/n⌋) (dropping nodes lighter than unit entirely), so
// the quantised maximum weight is at most n/ε and the weight-scale loop
// runs in O(MIS·log(n/ε)) phases regardless of W. The truncation forfeits
// at most ε·W ≤ ε·OPT total weight, giving w(I) ≥ (1−ε)·OPT/Δ.
func LocalRatioEps(g *graph.Graph, eps float64, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	maxW := g.MaxWeight()
	if minWeight(g) < 0 {
		return nil, fmt.Errorf("maxis: LocalRatioEps requires non-negative weights")
	}
	unit := quantUnit(g.N(), maxW, eps)
	cur := g.Weights()
	var dropped int64
	for v := range cur {
		q := cur[v] / unit
		dropped += cur[v] - q*unit
		cur[v] = q
	}
	return localRatioRun(g, cur, unit, cfg, "localratio-eps", true, map[string]float64{
		"quant_unit":    float64(unit),
		"dropped_value": float64(dropped),
	})
}

// quantUnit is the LocalRatioEps quantisation step ⌊ε·maxW/n⌋, clamped to
// at least 1 (integer weights need no quantising below that).
func quantUnit(n int, maxW int64, eps float64) int64 {
	if n == 0 || maxW <= 0 {
		return 1
	}
	unit := int64(math.Floor(eps * float64(maxW) / float64(n)))
	if unit < 1 {
		unit = 1
	}
	return unit
}

// localRatioRun is the shared push/reduce/pop loop over residual weights
// cur (consumed). With scaled set, phases walk weight thresholds 2^j
// downward exactly like baseline.go (≤ log₂ max(cur)+1 MIS phases); unset,
// every positive node is active each phase (≤ Δ+1 phases). unit scales
// stack weights back to the original weight function for reporting.
func localRatioRun(g *graph.Graph, cur []int64, unit int64, cfg Config, alg string, scaled bool, extra map[string]float64) (*Result, error) {
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	n := g.N()
	var maxCur int64
	for v := 0; v < n; v++ {
		if cur[v] > maxCur {
			maxCur = cur[v]
		}
	}
	var stack [][]bool
	var stackValue int64
	phases := 0
	// The phase schedule: scaled mode iterates thresholds, plain mode
	// iterates until the residual is gone, with the Δ+1 termination bound
	// as a backstop (fault injection can break MIS maximality and stall
	// progress; then the partial stack is still a valid independent set).
	maxPhases := bits.Len64(uint64(maxCur)) + 1
	if !scaled {
		maxPhases = g.MaxDegree() + 2
	}
	threshold := int64(1) << uint(bits.Len64(uint64(maxCur)))
	active := make([]bool, n)
	for maxCur > 0 {
		if scaled {
			threshold >>= 1
			if threshold < 1 {
				break
			}
		} else {
			threshold = 1
		}
		anyActive := false
		for v := 0; v < n; v++ {
			active[v] = cur[v] >= threshold
			anyActive = anyActive || active[v]
		}
		if !anyActive {
			continue
		}
		if phases >= maxPhases {
			if cfg.Faults.Enabled() {
				break
			}
			return nil, fmt.Errorf("maxis: %s exceeded its %d-phase bound (bug)", alg, maxPhases)
		}
		phases++
		set, _, err := dist.RunOnInduced(g, active, cfg.MISAlg().Run, &acc, cfg.Phase("ratio").Opts(seeds.Next())...)
		if err != nil {
			return nil, fmt.Errorf("maxis: %s phase %d: %w", alg, phases, err)
		}
		for v := 0; v < n; v++ {
			if set[v] {
				stackValue += cur[v] * unit
			}
		}
		stack = append(stack, set)
		applyReduction(g, cur, set)
		acc.AddRounds(1)
		maxCur = 0
		for v := 0; v < n; v++ {
			if cur[v] > maxCur {
				maxCur = cur[v]
			}
		}
	}
	// Residual positivity relies on MIS maximality, which fault injection
	// legitimately breaks; without faults leftovers are a real bug.
	if !cfg.Faults.Enabled() {
		for v := 0; v < n; v++ {
			if cur[v] > 0 {
				return nil, fmt.Errorf("maxis: %s left positive weight at node %d (bug)", alg, v)
			}
		}
	}
	set := PopStack(g, stack, &acc)
	if extra == nil {
		extra = map[string]float64{}
	}
	extra["phases"] = float64(phases)
	extra["stack_value"] = float64(stackValue)
	res, err := finish(g, set, cfg, acc, alg, extra)
	if err != nil {
		return nil, err
	}
	if res.Weight < stackValue {
		return nil, fmt.Errorf("maxis: stack property violated in %s (bug)", alg)
	}
	return res, nil
}

// minWeight returns the smallest node weight (0 for the empty graph).
func minWeight(g *graph.Graph) int64 {
	var min int64
	for v := 0; v < g.N(); v++ {
		if w := g.Weight(v); v == 0 || w < min {
			min = w
		}
	}
	return min
}
