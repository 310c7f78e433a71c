package maxis

import (
	"math"

	"distmwis/internal/congest"
	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"
)

// Sparsified implements Theorem 9: a poly(log log n)-round CONGEST
// algorithm returning an independent set of weight Ω(w(V)/Δ).
//
// Step 1 (Section 4.2) samples a subgraph H where node v joins with
// probability p(v) = min{λ·log n·(1/δ(v) + w(v)/wmax(v)), 1}: δ(v) is the
// maximum degree and wmax(v) the maximum weighted degree in v's inclusive
// neighbourhood. Lemma 3 gives Δ_H = O(log n) and Lemma 5 gives
// w(V_H) = Ω(min{w(V), w(V)·log n / Δ}) with high probability.
//
// Step 2 runs the Theorem 8 good-nodes algorithm on H; because
// Δ_H = O(log n), its MIS black box runs on an O(log n)-degree graph, which
// is what yields the paper's poly(log log n) round bound with the
// Rozhoň–Ghaffari MIS.
func Sparsified(g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	set, h, err := sparsifiedRun(g, cfg, seeds, &acc)
	if err != nil {
		return nil, err
	}
	var ext map[string]float64
	if g.N() > 0 {
		// An empty H keeps the keys, at zero.
		ext = map[string]float64{
			"sparsifier_nodes":     float64(h.nodes),
			"sparsifier_max_deg":   float64(h.maxDeg),
			"sparsifier_weight":    float64(h.weight),
			"sparsifier_weight_in": float64(g.TotalWeight()),
		}
	}
	return finish(g, set, cfg, acc, "sparsified", ext)
}

// sparsifierStats describes the H a sparsifiedRun sampled; only Sparsified
// reports it, so runs inside Theorem 2's boost build no Extra map.
type sparsifierStats struct {
	nodes, maxDeg int
	weight        int64
}

func sparsifiedRun(g *graph.Graph, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) ([]bool, sparsifierStats, error) {
	var h sparsifierStats
	if g.N() == 0 {
		return nil, h, nil
	}
	inH, err := SampleSparsifier(g, cfg, seeds, acc)
	if err != nil {
		return nil, h, err
	}
	set, err := dist.RunOnInduced(g, inH, nil, cfg.Scratch(), acc, func(sub *graph.Graph) ([]bool, error) {
		h = sparsifierStats{nodes: sub.N(), maxDeg: sub.MaxDegree(), weight: sub.TotalWeight()}
		set, _, err := goodNodesRun(sub, cfg, seeds, acc)
		return set, err
	})
	if err != nil {
		return nil, h, err
	}
	return set, h, nil
}

// SampleSparsifier runs the three-round sampling protocol of Section 4.2
// and returns the membership vector of H. Exported for the Lemma 3 / Lemma 5
// experiments, which study the sparsifier itself.
func SampleSparsifier(g *graph.Graph, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) ([]bool, error) {
	cfg = cfg.Normalized(g)
	if seeds == nil {
		seeds = protocol.NewSeedSeq(cfg.Seed)
	}
	if acc == nil {
		acc = &dist.Accumulator{}
	}
	lam := cfg.LambdaOrDefault()
	return dist.RunPhase(g, congest.Bind(func(p *sparsifySample) { p.lambda = lam }), acc, cfg.Phase("sparsify/sample").Sim(seeds.Next()))
}

// sparsifySample is the sampling protocol:
//
//	round 1: broadcast (degree, weight);
//	round 2: compute δ(v) and the weighted degree w(N(v)); broadcast w(N(v));
//	round 3: compute wmax(v), draw membership with probability p(v).
//
// Weighted degrees can reach n·W, so they are shipped with the wider
// maxSum bound — still O(log n) bits since W = poly(n).
type sparsifySample struct {
	info    congest.NodeInfo
	lambda  float64
	deltaV  int   // max degree in N+(v)
	wDeg    int64 // w(N(v))
	inH     bool
	maxSumW int64
}

func (p *sparsifySample) Init(info congest.NodeInfo) {
	p.info = info
	p.maxSumW = saturatingMul(int64(info.NUpper), info.MaxWeight)
}

// saturatingMul bounds the weighted-degree field so the zig-zag width stays
// valid; callers must keep n·W < 2^61 (documented in package congest) for
// exact accounting, which all generators in this repository respect.
func saturatingMul(a, b int64) int64 {
	const limit = int64(1) << 61
	if a > 0 && b > limit/a {
		return limit
	}
	return a * b
}

func (p *sparsifySample) Round(round int, recv []*congest.Message) bool {
	switch round {
	case 1:
		sendDegreeWeight(&p.info)
		return false

	case 2:
		p.deltaV, p.wDeg = readDegreeWeight(&p.info, recv)
		var w wire.Writer
		w.WriteInt(p.wDeg, p.maxSumW)
		p.info.Broadcast(&w)
		return false

	default: // round 3
		wmax := p.wDeg
		for _, m := range recv {
			if m == nil {
				continue
			}
			nwd, err := m.Reader().ReadInt(p.maxSumW)
			if err != nil {
				continue // garbled under faults: treat as missing
			}
			if nwd > wmax {
				wmax = nwd
			}
		}
		p.inH = p.draw(wmax)
		return true
	}
}

// draw evaluates p(v) = min{λ·log₂ n·(1/δ(v) + w(v)/wmax(v)), 1}.
func (p *sparsifySample) draw(wmax int64) bool {
	if p.info.Degree == 0 {
		return true // isolated nodes always keep themselves
	}
	logn := math.Log2(float64(p.info.NUpper))
	if logn < 1 {
		logn = 1
	}
	inv := 1 / float64(p.deltaV)
	frac := 0.0
	if wmax > 0 && p.info.Weight > 0 {
		frac = float64(p.info.Weight) / float64(wmax)
	}
	prob := p.lambda * logn * (inv + frac)
	if prob >= 1 {
		return true
	}
	return p.info.Rand.Float64() < prob
}

func (p *sparsifySample) Output() bool { return p.inH }

// sparsifiedInner adapts Sparsified as a boosting black box. The constant
// follows the Theorem 9 chain: H keeps a Θ(min{1, log n/Δ}) weight fraction
// and GoodNodes extracts a 1/(4(Δ_H+1)) fraction of it; the declared c = 16
// is the constant the boosting loop budgets phases for (t = c/ε).
type sparsifiedInner struct{}

func (sparsifiedInner) Name() string { return "sparsified" }

func (sparsifiedInner) FactorC() int { return 16 }

func (sparsifiedInner) Run(g *graph.Graph, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) ([]bool, error) {
	set, _, err := sparsifiedRun(g, cfg, seeds, acc)
	return set, err
}

var _ Inner = sparsifiedInner{}
