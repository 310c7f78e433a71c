package maxis

import (
	"fmt"

	"distmwis/internal/congest"
	"distmwis/internal/dist"
	"distmwis/internal/graph"
	"distmwis/internal/protocol"
	"distmwis/internal/wire"
)

// planarDegreeCap is the low-degree threshold for PlanarConstantRound.
// Planar graphs have average degree < 6, so more than half of the nodes
// have degree ≤ 11.
const planarDegreeCap = 11

// PlanarConstantRound is the O(1)-round O(1)-approximation for unweighted
// planar (more generally, average-degree-bounded) graphs from the paper's
// Related Work line [23, 32] (Czygrinow–Hanckowiak–Wawrzyniak; Lenzen–
// Wattenhofer), realized through this repository's machinery:
//
//  1. one round restricts attention to nodes of degree ≤ 11 — in a planar
//     graph that is more than n/2 nodes (average degree < 6);
//  2. the Boppana ranking algorithm runs on that bounded-degree subgraph;
//     by the Theorem 11 martingale analysis it returns an independent set
//     of size ≥ (n/2)/(8·(11+1)) = n/192 with high probability.
//
// Since OPT ≤ n, the result is a 192-approximation (constant) in O(1)
// rounds — impossible for general graphs by Theorem 4, which is exactly
// the contrast the experiment suite draws. Requires a unit-weight graph.
func PlanarConstantRound(g *graph.Graph, cfg Config) (*Result, error) {
	if !g.IsUnitWeight() {
		return nil, fmt.Errorf("maxis: PlanarConstantRound requires an unweighted graph")
	}
	cfg = cfg.Normalized(g)
	seeds := protocol.NewSeedSeq(cfg.Seed)
	var acc dist.Accumulator

	// One round to learn which neighbours are low-degree (each node
	// broadcasts a single bit).
	low, err := dist.RunPhase(g, congest.Bind(func(p *degreeCapFlag) { p.cap = planarDegreeCap }), &acc, cfg.Phase("lowdeg-flag").Sim(seeds.Next()))
	if err != nil {
		return nil, err
	}
	sub := g.Induce(low)
	acc.AddRounds(1)
	if sub.G.N() == 0 {
		return finish(g, make([]bool, g.N()), cfg, acc, "planar-constant", nil)
	}
	set, err := rankingRun(sub.G, 2, cfg, seeds, &acc)
	if err != nil {
		return nil, err
	}
	lifted := sub.LiftSet(set)
	return finish(g, lifted, cfg, acc, "planar-constant", map[string]float64{
		"low_degree_nodes": float64(sub.G.N()),
		"size_bound":       float64(sub.G.N()) / (8 * float64(planarDegreeCap+1)),
	})
}

// degreeCapFlag marks nodes of degree ≤ cap after a one-bit exchange (the
// bit is only needed so neighbours can drop edges towards high-degree
// nodes; the flag itself is local knowledge).
type degreeCapFlag struct {
	info congest.NodeInfo
	cap  int
}

func (p *degreeCapFlag) Init(info congest.NodeInfo) { p.info = info }

func (p *degreeCapFlag) Round(round int, recv []*congest.Message) bool {
	var w wire.Writer
	w.WriteBool(p.info.Degree <= p.cap)
	p.info.Broadcast(&w)
	return true
}

func (p *degreeCapFlag) Output() bool { return p.info.Degree <= p.cap }
