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
	return localRatioRun(g, g.Weights(), 0, 1, cfg, "localratio", "ratio", nil)
}

// LocalRatioEps is the (1±ε) variant: weights are divided by
// unit = max(1, ⌊ε·W/n⌋) (dropping nodes lighter than unit entirely), so
// the quantised maximum weight is at most n/ε and the weight-scale loop
// runs in O(MIS·log(n/ε)) phases regardless of W. The truncation forfeits
// at most ε·W ≤ ε·OPT total weight, giving w(I) ≥ (1−ε)·OPT/Δ. n and W
// are the bounds every node is told (cfg.NUpper, cfg.MaxWeight).
func LocalRatioEps(g *graph.Graph, eps float64, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	if minWeight(g) < 0 {
		return nil, fmt.Errorf("maxis: LocalRatioEps requires non-negative weights")
	}
	unit := quantUnit(cfg.NUpper, cfg.MaxWeight, eps)
	cur := g.Weights()
	var dropped int64
	for v := range cur {
		q := cur[v] / unit
		dropped += cur[v] - q*unit
		cur[v] = q
	}
	return localRatioRun(g, cur, cfg.MaxWeight/unit, unit, cfg, "localratio-eps", "ratio", map[string]float64{
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
// cur (consumed). With top > 0, a bound on cur, phases walk the weight
// scales 2^j ≤ top downward (≤ log₂ top+1 MIS phases; BarYehuda is this
// loop on the raw weights); with top = 0 every positive node v is active
// in each of the first deg(v)+1 phases (≤ Δ+1 phases). Every phase position draws its seed, so phase
// i gets the same seed in every run, and every phase shares the trace
// label stage. unit scales stack weights back to the original weight
// function for reporting.
func localRatioRun(g *graph.Graph, cur []int64, top, unit int64, cfg Config, alg, stage string, extra map[string]float64) (*Result, error) {
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	n := g.N()
	var stack [][]bool
	var stackValue int64
	phases := 0
	// The phase schedule: scaled mode iterates thresholds, plain mode
	// iterates until the residual is gone. Node v takes part in at most
	// deg(v)+1 plain phases: in each, v or an active neighbour joins the
	// MIS and its residual drops to zero for good, so without faults v's
	// residual is gone by then, and the check after the loop fails a run
	// that needs more. Fault injection can break MIS maximality and stall
	// progress; the cap then ends the run within Δ+1 phases, and since it
	// reads only v's degree, v's part is the same in every run that holds
	// its component. The partial stack is still a valid independent set.
	scales := 0
	if top > 0 {
		scales = bits.Len64(uint64(top))
	}
	active := make([]bool, n)
	for phase := 0; top == 0 || phase < scales; phase++ {
		seed := seeds.Next()
		threshold := int64(1)
		if top > 0 {
			threshold <<= scales - 1 - phase
		}
		anyActive := false
		for v := 0; v < n; v++ {
			active[v] = cur[v] >= threshold && (top > 0 || phase <= g.Degree(v))
			anyActive = anyActive || active[v]
		}
		if !anyActive {
			if top > 0 {
				continue
			}
			break
		}
		phases++
		set, _, err := dist.RunOnInduced(g, active, cfg.MISAlg().Run, &acc, cfg.Phase(stage).Opts(seed)...)
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
