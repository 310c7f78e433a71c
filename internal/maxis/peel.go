package maxis

import (
	"fmt"
	"math/bits"

	"distmwis/internal/congest"
	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"
)

// DegeneracyEstimate is the result of the distributed peeling protocol.
type DegeneracyEstimate struct {
	// Estimate is T̂ with degeneracy(G) ≤ T̂ ≤ 8·degeneracy(G); since
	// α ≤ degeneracy ≤ 2α−1 (Nash–Williams), α ≤ T̂ ≤ 16α.
	Estimate int
	// Phases is the number of threshold doublings used.
	Phases int
	// Metrics aggregates the protocol cost: O(log Δ · log n) rounds.
	Metrics dist.Accumulator
}

// EstimateDegeneracy runs the classical distributed peeling protocol: for
// thresholds T = 1, 2, 4, … each phase performs ⌈log₂ n⌉+2 synchronous
// peel rounds in which every surviving node of residual degree ≤ T
// removes itself and notifies its neighbours. Survivors carry over to the
// next (doubled) threshold.
//
// Correctness of the two-sided bound: (lower) every removed node had ≤ T̂
// neighbours at removal time, so the removal order is a T̂-degenerate
// ordering, i.e. degeneracy ≤ T̂; (upper) once T ≥ 4·degeneracy, Markov on
// the residual edge count kills at least half of the survivors per peel
// round, so ⌈log₂ n⌉+2 rounds empty the graph and the doubling stops at
// T̂ < 8·degeneracy.
//
// The paper's Theorem 3 assumes the arboricity α is known to the nodes;
// this protocol discharges that assumption at an O(log Δ·log n) round cost
// and a constant-factor loss (see Theorem3Auto).
func EstimateDegeneracy(g *graph.Graph, cfg Config) (*DegeneracyEstimate, error) {
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	est := &DegeneracyEstimate{}
	n := g.N()
	if n == 0 {
		return est, nil
	}
	peelRounds := bits.Len(uint(cfg.NUpper)) + 2
	alive := make([]bool, n)
	aliveN := 0
	for v := 0; v < n; v++ {
		if g.Degree(v) > 0 {
			alive[v] = true
			aliveN++
		}
	}
	if aliveN == 0 {
		return est, nil // edgeless: degeneracy 0
	}
	for threshold := 1; ; threshold *= 2 {
		est.Phases++
		est.Estimate = threshold
		sub := g.Induce(alive)
		est.Metrics.AddRounds(1) // survivors exchange liveness flags
		res, err := dist.RunPhase(sub.G, congest.Bind(func(p *peelProcess) {
			p.threshold, p.budget = threshold, peelRounds
		}), &est.Metrics, cfg.Phase("peel").Opts(seeds.Next())...)
		if err != nil {
			return nil, fmt.Errorf("maxis: peel threshold %d: %w", threshold, err)
		}
		survivors := 0
		for i, out := range res.Outputs {
			if alive2, ok := out.(bool); ok && alive2 {
				survivors++
			} else {
				alive[sub.ToParent[i]] = false
			}
		}
		if survivors == 0 {
			return est, nil
		}
		if threshold > cfg.NUpper {
			// Fault-free this means the peeling logic is broken; under
			// faults a crashed node legitimately never announces its
			// removal and can keep neighbours alive past every threshold.
			if cfg.Faults.Enabled() {
				return est, nil
			}
			return nil, fmt.Errorf("maxis: peeling failed to converge (bug)")
		}
	}
}

// peelProcess removes itself once its residual degree drops to the
// threshold, announcing the removal; Output reports survival.
type peelProcess struct {
	info      congest.NodeInfo
	threshold int
	budget    int
	aliveDeg  int
	alivePort graph.Bitset
	removed   bool
}

func (p *peelProcess) Init(info congest.NodeInfo) {
	p.info = info
	p.aliveDeg = info.Degree
	p.alivePort = graph.NewBitset(info.Degree)
	p.alivePort.SetFirst(info.Degree)
}

func (p *peelProcess) Round(round int, recv []*congest.Message) ([]*congest.Message, bool) {
	for port, m := range recv {
		if m == nil || !p.alivePort.Get(port) {
			continue
		}
		gone, _ := m.Reader().ReadBool()
		if gone {
			p.alivePort.Unset(port)
			p.aliveDeg--
		}
	}
	if !p.removed && p.aliveDeg <= p.threshold {
		p.removed = true
		var w wire.Writer
		w.WriteBool(true)
		out := p.info.Out
		m := p.info.Message(&w)
		p.alivePort.ForEach(func(port int) { out[port] = m })
		return out, true
	}
	return nil, round >= p.budget
}

func (p *peelProcess) Output() any { return !p.removed }

// Theorem3Auto is Theorem 3 without the known-α assumption: it first runs
// EstimateDegeneracy to obtain T̂ ∈ [degeneracy, 8·degeneracy] and then
// Algorithm 6 with α := T̂. The approximation guarantee degrades by the
// estimation constant to 8(1+ε)·T̂ ≤ 128(1+ε)·α while the halving
// precondition of Proposition 5 is guaranteed (T̂ ≥ degeneracy ≥ α).
func Theorem3Auto(g *graph.Graph, eps float64, cfg Config) (*ArboricityResult, error) {
	est, err := EstimateDegeneracy(g, cfg)
	if err != nil {
		return nil, err
	}
	alpha := est.Estimate
	if alpha == 0 {
		alpha = 1
	}
	res, err := Theorem3(g, alpha, eps, cfg)
	if err != nil {
		return nil, err
	}
	res.Metrics.Add(est.Metrics)
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	res.Extra["alpha_estimate"] = float64(est.Estimate)
	res.Extra["estimate_phases"] = float64(est.Phases)
	return res, nil
}
