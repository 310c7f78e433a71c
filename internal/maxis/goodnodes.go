package maxis

import (
	"distmwis/internal/congest"
	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"
)

// GoodNodes implements Theorem 8: an O(MIS(n,Δ))-round CONGEST algorithm
// returning an independent set of weight at least w(V)/(4(Δ+1)).
//
// A node v is good when w(v) ≥ w(N⁺(v)) / (2(δ(v)+1)), where δ(v) is the
// maximum degree in v's inclusive neighbourhood (Section 4.1). The protocol
// spends two rounds learning neighbours' degrees and weights, then runs the
// black-box MIS on the subgraph induced by the good nodes.
func GoodNodes(g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator
	set, _, err := goodNodesRun(g, cfg, seeds, &acc)
	if err != nil {
		return nil, err
	}
	return finish(g, set, cfg, acc, "goodnodes", nil)
}

// goodNodesRun is the reusable core shared with the sparsified pipeline and
// the boosting inner adapter.
func goodNodesRun(g *graph.Graph, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) (set []bool, good []bool, err error) {
	if g.N() == 0 {
		return nil, nil, nil
	}
	// Phase 1: two-round good-node detection protocol.
	good, err = dist.RunPhase(g, congest.Bind[goodDetect](nil), acc, cfg.Phase("goodnodes/detect").Sim(seeds.Next()))
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: MIS over the good-node subgraph (Lemma 2: black-box MIS with
	// the original NUpper works on any subgraph).
	seed := seeds.Next()
	set, err = dist.RunOnInduced(g, good, nil, cfg.Scratch(), acc, func(sub *graph.Graph) ([]bool, error) {
		return dist.RunPhase(sub, cfg.MISAlg().Run, acc, cfg.Phase("goodnodes/mis").Sim(seed))
	})
	if err != nil {
		return nil, nil, err
	}
	return set, good, nil
}

// goodDetect is the two-round protocol computing the Theorem 8 good flag:
// round 1 broadcasts (degree, weight), round 2 evaluates
// 2·(δ(v)+1)·w(v) ≥ w(N⁺(v)).
type goodDetect struct {
	info congest.NodeInfo
	good bool
}

func (p *goodDetect) Init(info congest.NodeInfo) { p.info = info }

func (p *goodDetect) Round(round int, recv []*congest.Message) bool {
	if round == 1 {
		sendDegreeWeight(&p.info)
		return false
	}
	maxDeg, nbrW := readDegreeWeight(&p.info, recv)
	// good ⇔ w(v) ≥ w(N⁺(v)) / (2(δ(v)+1)), in overflow-safe integers.
	p.good = 2*int64(maxDeg+1)*p.info.Weight >= p.info.Weight+nbrW
	return true
}

// sendDegreeWeight broadcasts the node's (degree, weight): round 1 of
// goodDetect and of sparsifySample.
func sendDegreeWeight(info *congest.NodeInfo) {
	var w wire.Writer
	w.WriteUint(uint64(info.Degree), uint64(info.NUpper))
	w.WriteInt(info.Weight, info.MaxWeight)
	info.Broadcast(&w)
}

// readDegreeWeight reads the neighbours' sendDegreeWeight messages and
// returns δ(v), the maximum degree over N⁺(v), and w(N(v)), the sum of the
// neighbours' weights. A garbled announcement (fault injection) counts as
// missing: the figures degrade but stay well-formed.
func readDegreeWeight(info *congest.NodeInfo, recv []*congest.Message) (maxDeg int, nbrW int64) {
	maxDeg = info.Degree
	for _, m := range recv {
		if m == nil {
			continue
		}
		r := m.Reader()
		deg, e1 := r.ReadUint(uint64(info.NUpper))
		nw, e2 := r.ReadInt(info.MaxWeight)
		if e1 != nil || e2 != nil {
			continue
		}
		maxDeg = max(maxDeg, int(deg))
		nbrW += nw
	}
	return maxDeg, nbrW
}

func (p *goodDetect) Output() bool { return p.good }

// goodNodesInner adapts GoodNodes as a boosting black box with c = 8:
// w(V)/(4(Δ+1)) ≥ w(V)/(8Δ) whenever Δ ≥ 1.
type goodNodesInner struct{}

func (goodNodesInner) Name() string { return "goodnodes" }

func (goodNodesInner) FactorC() int { return 8 }

func (goodNodesInner) Run(g *graph.Graph, cfg Config, seeds *protocol.SeedSeq, acc *dist.Accumulator) ([]bool, error) {
	set, _, err := goodNodesRun(g, cfg, seeds, acc)
	return set, err
}

var _ Inner = goodNodesInner{}
